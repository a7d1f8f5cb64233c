import math


def rel_err(got: float, want: float) -> float:
    """Relative error |got - want| / |want| (want must be nonzero)."""
    return abs(got - want) / abs(want)


def log_grid(lo: float, hi: float, count: int) -> list[float]:
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Wrap module.name so each call appends its positional arguments to
    the returned list; monkeypatch undoes the wrapping."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def record_indices(monkeypatch, module, name: str) -> list[list[int]]:
    """Wrap the factory module.name (which returns a function of k, such
    as a d_k) so that each function it makes records every k it is called
    with; returns one list of k per factory call."""
    made, factory = [], getattr(module, name)

    def traced(*args):
        ks, f = [], factory(*args)
        made.append(ks)
        return lambda k: ks.append(k) or f(k)

    monkeypatch.setattr(module, name, traced)
    return made


def per_node(f):
    """A GK15 integrand from the scalar f: the list of f at each node."""
    return lambda ts: [f(t) for t in ts]
