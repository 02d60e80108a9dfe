"""Closed-form anonymity and attack calculations with matching simulators."""
