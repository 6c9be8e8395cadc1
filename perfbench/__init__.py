"""Wall-time benchmark of the public call paths; see README.md."""
