"""The maze router's compiled kernels, under their historical name.

The C sources and the loader live in :mod:`repro._ckernel`, which
builds every kernel of the package into one library; ``load_kernel``
here is that loader and returns that same library.
"""

from .._ckernel import load_kernel

__all__ = ["load_kernel"]
