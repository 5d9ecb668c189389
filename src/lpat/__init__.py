"""Adversarially trained LSTM classifier for hard-drive health degrees."""

__version__ = "0.1.0"
