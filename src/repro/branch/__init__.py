"""Branch prediction substrate: direction predictors, BTB, RAS."""
