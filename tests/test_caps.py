"""Every resource cap at its edge: the request there passes the cap check,
the next request up is refused before any work.

The edges are written as literals, not through the module constants, so
a cap that moves by one, or a `>` that becomes `>=`, fails here.  Where
the work after a check is slow, a stub stands in for it: the edge request
reaches the stub, and the refused one never does.
"""
import numpy as np
import pytest

from oddseq import cli, counting, oracle, primegen, sequences
from oddseq.errors import ResourceLimitError


class _Work(Exception):
    """Raised by the stub that stands in for the work after a cap check."""


def _work(*args, **kwargs):
    raise _Work


# cap: (the work stubbed or None, the request at the edge, what it gives
# (a value or an exception), the next request up, how that is refused)
CAP_EDGES = {
    "DEFAULT_MAX_LIMIT": (
        (oracle, "_packed_odd_primes"),
        lambda: oracle.SieveTable.build(10**8), _Work,
        lambda: oracle.SieveTable.build(10**8 + 1), ResourceLimitError),
    "MAX_K_TERMS in _odd_ks": (
        None, lambda: len(counting._odd_ks(5_000_001)), 2_500_000,
        lambda: counting._odd_ks(5_000_003), ResourceLimitError),
    "MAX_K_TERMS in nth_root_floor": (
        None,
        lambda: counting.nth_root_floor(np.array([2_500_000**2]), 2).tolist(),
        [2_500_000],
        lambda: counting.nth_root_floor(np.array([2_500_001**2]), 2),
        ResourceLimitError),
    # 32768 passes the cap and is then refused as no odd prime
    "MAX_WHEEL_RESIDUES": (
        None, lambda: sequences.build_wheel([32768]), ValueError,
        lambda: sequences.build_wheel([32769]), ResourceLimitError),
    # 2 odd residues in each period of 6
    "MAX_WHEEL_ELEMENTS": (
        None,
        lambda: len(sequences.wheel_elements(sequences.build_wheel([3]),
                                             3_000_000)),
        999_999,
        lambda: sequences.wheel_elements(sequences.build_wheel([3]),
                                         3_000_001),
        ResourceLimitError),
    "DEFAULT_MAX_COUNT": (
        (primegen, "_run"), lambda: primegen.first_n_primes(10**6), _Work,
        lambda: primegen.first_n_primes(10**6 + 1), ResourceLimitError),
    # argparse refuses a value past the cap with a usage error, exit 2
    "MAX_VERIFY_N": (
        (cli, "_cmd_verify"), lambda: cli.main(["verify", "--max-n", "1000000"]),
        _Work, lambda: cli.main(["verify", "--max-n", "1000001"]), SystemExit),
    "MAX_BENCH_REPEATS": (
        (cli, "_cmd_bench"), lambda: cli.main(["bench", "--repeats", "100"]),
        _Work, lambda: cli.main(["bench", "--repeats", "101"]), SystemExit),
}


@pytest.mark.parametrize("cap", CAP_EDGES)
def test_each_cap_admits_its_edge_and_refuses_the_next_request(
        cap, monkeypatch, capsys):
    work, edge, gives, above, refusal = CAP_EDGES[cap]
    if work is not None:
        monkeypatch.setattr(*work, _work)
    if isinstance(gives, type) and issubclass(gives, Exception):
        with pytest.raises(gives):
            edge()
    else:
        assert edge() == gives
    with pytest.raises(refusal) as refused:
        above()
    if refusal is SystemExit:
        assert refused.value.code == 2
        assert "must be <=" in capsys.readouterr().err
