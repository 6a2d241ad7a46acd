"""Prepared-program artifacts in format version 1, for refusal tests.

Version 1 of ``PreparedProgram`` kept the whole key-input trace (pickled
as a binary trace blob), the CFG of every function and the moduli, and
its ``sites`` mapped each site to a bare execution count. Stores written
then still hold such blobs; the artifact store must quarantine them as
``unsupported format version`` and re-prepare the release.
"""

from repro.core.primes import choose_moduli
from repro.pipeline import PreparedProgram
from repro.vm.cfg import build_cfg

#: A frozen version-1 trace blob: binary trace format 2 (``WVMT`` plus
#: its version byte) holding one ``main:<entry>`` point. The format is
#: gone from the code; the store refuses a version-1 artifact on its
#: ``version`` field before it would read this one.
V1_TRACE_BLOB = b"WVMT\x02\x01\x04main\x01\x07<entry>\x02\x00\x01\x00\x00\x7f"


def v1_state(prepared, drop=(), **changes):
    """The pickled state a version-1 artifact of ``prepared`` carried.

    ``drop`` removes fields (what still older pickles lacked);
    ``changes`` overrides fields.
    """
    module = prepared.module
    state = {
        "module": module,
        "key": prepared.key,
        "watermark_bits": prepared.watermark_bits,
        "moduli": choose_moduli(prepared.watermark_bits),
        "pieces": prepared.pieces,
        "trace": V1_TRACE_BLOB,
        "sites": {key: site.count for key, site in prepared.sites.items()},
        "cfgs": {name: build_cfg(fn) for name, fn in module.functions.items()},
        "baseline_output": prepared.baseline_output,
        "timings": prepared.timings,
        "version": 1,
        "dispatch_counts": None,
        "codec": prepared.codec,
    }
    state.update(changes)
    for name in drop:
        del state[name]
    return state


def v1_artifact(prepared, drop=(), **changes):
    """A ``PreparedProgram`` that pickles in the version-1 layout."""
    old = PreparedProgram.__new__(PreparedProgram)
    old.__dict__.update(v1_state(prepared, drop, **changes))
    return old
