"""Repo benchmark: see run.py."""
