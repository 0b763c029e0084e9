"""The paper's contribution: Proactive Instruction Fetch and its parts."""
