"""mpmath, imported on first use (PEP 562): modules write ``from . import
_mpmath as mpmath``.  The first lookup copies mpmath's names here and drops
the hook, since the interpreter does not specialize loads from a module with
a ``__getattr__``."""


def __getattr__(name):
    if name.startswith("__"):  # __path__, __wrapped__ and other probes
        raise AttributeError(name)
    import mpmath
    globals().update((k, v) for k, v in vars(mpmath).items() if not k.startswith("__"))
    globals().pop("__getattr__", None)
    return getattr(mpmath, name)
