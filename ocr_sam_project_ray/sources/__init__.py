"""Corpus sources: the synthetic page corpus generator."""
