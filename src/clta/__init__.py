"""Content-and-length based temporal attention for few-shot sequence
classification, with baseline attention mechanisms, a from-scratch trainer,
and an episodic evaluation harness."""

__version__ = "0.1.0"
