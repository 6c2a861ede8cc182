"""Host-cost benchmark of the Centaur serving simulator (see README.md)."""
