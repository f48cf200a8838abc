"""Classical-vision substrate: HOG, histograms, k-means, BoVW, Grad-CAM."""

from repro.vision.bovw import BoVWEncoder
from repro.vision.gradcam import GradCAM
from repro.vision.histograms import (
    color_histogram,
    grayscale_histogram,
    joint_color_histogram,
)
from repro.vision.hog import gradient_magnitude_orientation, hog_descriptor
from repro.vision.kmeans import KMeans, kmeans_plus_plus_init
from repro.vision.patches import dense_patches, describe_image_patches

__all__ = [
    "BoVWEncoder",
    "GradCAM",
    "color_histogram",
    "grayscale_histogram",
    "joint_color_histogram",
    "gradient_magnitude_orientation",
    "hog_descriptor",
    "KMeans",
    "kmeans_plus_plus_init",
    "dense_patches",
    "describe_image_patches",
]
