"""Species-agnostic animal re-identification from local pattern features.

The pipeline encodes each image's local descriptors into a Fisher vector,
ranks database images by cosine distance, then re-ranks the shortlist by
geometric verification from the features' affine frames.  Everything
downstream of feature extraction lives here; features arrive through
:mod:`patreid.ingest`.
"""

__version__ = "0.1.0"
