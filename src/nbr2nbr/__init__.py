"""Self-supervised image denoising from single noisy images.

Training pairs come from random neighbor sub-sampling of one noisy
image; a regularization term corrects for the ground-truth gap between
the paired sub-images. Includes a numpy denoising network with analytic
gradients, synthetic noise models, PSNR/SSIM metrics, and Monte-Carlo
verifiers for the identities the method rests on.
"""

__version__ = "0.1.0"
