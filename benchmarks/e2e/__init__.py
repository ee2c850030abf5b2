"""End-to-end benchmark of Hummingbird: Table 1, a violating design, the
daemon edit loop and a one-edit batch re-run (see README.md)."""
