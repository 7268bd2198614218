"""Test-only reference implementations ("oracles") that the fast paths
in ``src`` are checked against, bit for bit."""
