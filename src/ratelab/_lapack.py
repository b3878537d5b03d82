"""scipy's compiled LAPACK wrappers, without the `scipy.linalg` package.

`scipy.linalg.lapack` re-exports its functions from the extension module
`scipy.linalg._flapack`, but importing the package runs scipy's array-API
set-up, which imports numpy submodules ratelab never uses. Loading the
extension by path gives the same compiled functions at a fraction of the
start-up cost. `import scipy` comes first, which is cheap and does scipy's
shared-library set-up. Where the extension cannot be loaded by path,
``lapack`` is `scipy.linalg.lapack` itself.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import scipy


def load(directory: str):
    """The `_flapack` extension in ``directory``, or `scipy.linalg.lapack` if
    no loadable one is there."""
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if not os.path.isfile(path):
            continue
        loader = ExtensionFileLoader("scipy.linalg._flapack", path)
        try:
            module = module_from_spec(spec_from_loader(loader.name, loader, origin=path))
            loader.exec_module(module)
        except ImportError:
            break
        return module
    from scipy.linalg import lapack

    return lapack


lapack = load(os.path.join(os.path.dirname(scipy.__file__), "linalg"))
