"""Severity-indexed degradation processes, reverse samplers, and verification.

A desk-scale restoration toolkit: linear degradation operators (blur,
inpainting, blending) indexed by a severity in [0, 1], a stochastic
observation model with a geometric noise schedule, closed-form Gaussian
posterior-mean denoising, an incremental reverse sampler with guidance and
early stopping, exact min-max degradation scheduling, and a verification
harness for the identities the sampler relies on.
"""

__version__ = "0.1.0"
