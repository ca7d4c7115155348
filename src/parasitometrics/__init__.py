"""Patient-level evaluation metrics for object-detection-based parasitemia diagnosis."""

__version__ = "0.1.0"
