"""Core pipeline model: fetch engine with wrong-path noise, trace generation."""
