"""Equivalence net for the N32 machine and the native embedder.

Every digest below was captured on the commit before the machine ran
from a per-instruction handler table, when ``Machine.step`` still
dispatched through a mnemonic if/elif chain and the embedder rescanned
the whole program for every inserted call. The pins stand in for a
second reference machine: if one moves, the machine or the embedder no
longer computes what it used to, and old marked binaries, profiles and
brackets stop meaning what they meant.

Covered: every data-computing instruction form on edge operand values
(registers, flags, memory, faults), every SPEC-like kernel's output and step count on the train
and ref inputs, its train-input profile (counts and first-execution
order), the step-budget fault, and for five kernels a 64-bit
``embed_native`` (image bytes, bracket, call sites, tamper cells), the
extraction of its mark, the auto-framed extraction, and the negative
extraction from the unmarked kernel. The cheapest cases run in the fast
tier; the rest are ``slow``.
"""

import hashlib

import pytest

from repro.native import (
    Imm,
    Machine,
    MachineFault,
    Mem,
    Reg,
    ni,
    profile_image,
    run_image,
)
from repro.native.assembler import build_image
from repro.native_wm import embed_native, extract_native, extract_native_auto
from repro.workloads.spec import (
    REF_INPUT,
    SPEC_PROGRAMS,
    TRAIN_INPUT,
    spec_native,
)

FAST_KERNELS = ("crafty", "gcc", "mcf")
WIDTH = 64
MARKS = {
    "mcf": (0x0123456789ABCDEF, 11),
    "gcc": (0xFEDCBA9876543210, 12),
    "vpr": (0x8000000000000001, 13),
    "vortex": (0x5A5A5A5AA5A5A5A5, 14),
    "bzip2": (0x00000000FFFFFFFF, 15),
}

_IMAGES = {}


def _image(name):
    if name not in _IMAGES:
        _IMAGES[name] = spec_native(name)
    return _IMAGES[name]


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _tier(names, fast):
    return [n if n in fast else pytest.param(n, marks=pytest.mark.slow)
            for n in names]


def run_digest(name: str, inputs) -> str:
    result = run_image(_image(name), inputs)
    return _digest(result.steps, result.output)


def profile_digest(name: str) -> str:
    profile = profile_image(_image(name), TRAIN_INPUT)
    return _digest(
        profile.total_steps, profile.output,
        sorted(profile.counts.items()), sorted(profile.first_seen.items()),
    )


def budget_digest(name: str) -> str:
    """Fault reason, address and step count when the budget runs out
    halfway through the train run."""
    budget = run_image(_image(name), TRAIN_INPUT).steps // 2
    machine = Machine(_image(name), budget)
    with pytest.raises(MachineFault) as info:
        machine.run(TRAIN_INPUT)
    return _digest(str(info.value), info.value.reason, info.value.eip,
                   machine.steps, machine.eip, machine.regs, machine.output)


EDGE_VALUES = (0, 1, -1, -7, 31, 33, 0x7FFFFFFF, -0x80000000)
_EAX, _ECX, _TOP = Reg("eax"), Reg("ecx"), Mem(base="esp", disp=0)
#: Every data-computing instruction form, as operands over eax = a,
#: ecx = b and [esp] = b.
OPERATION_FORMS = {
    "rr": lambda a, b: (_EAX, _ECX),
    "ri": lambda a, b: (_EAX, Imm(b)),
    "mr": lambda a, b: (_TOP, _EAX),
    "rm": lambda a, b: (_EAX, _TOP),
    "mi": lambda a, b: (_TOP, Imm(a)),
    "s8": lambda a, b: (_EAX, Imm(b & 0xFF)),
    "r": lambda a, b: (_ECX,),
    "rri": lambda a, b: (_EAX, _ECX, Imm(a)),
}
OPERATIONS = (
    [(f"{op}_rr", "rr") for op in
     ("add", "sub", "and", "or", "xor", "cmp", "test", "imul",
      "shl", "shr", "sar")]
    + [(f"{op}_ri", "ri") for op in
       ("add", "sub", "and", "or", "xor", "cmp")]
    + [(f"{op}_ri", "s8") for op in ("shl", "shr", "sar")]
    + [(f"{op}_mr", "mr") for op in ("add", "sub", "xor")]
    + [(f"{op}_rm", "rm") for op in ("add", "xor", "cmp")]
    + [("cmp_mi", "mi"), ("imul_rri", "rri"), ("neg", "r"), ("not", "r"),
       ("idiv", "r")]
)


def operations_digest() -> str:
    """Registers, memory, flags and any fault after each instruction
    form on every pair of edge operand values."""
    seen = []
    for mnemonic, form in OPERATIONS:
        for a in EDGE_VALUES:
            for b in EDGE_VALUES:
                image = build_image([
                    ("label", "main"),
                    ni("mov_ri", _EAX, Imm(a)),
                    ni("mov_ri", _ECX, Imm(b)),
                    ni("push", _ECX),
                    ni(mnemonic, *OPERATION_FORMS[form](a, b)),
                    ni("pushf"),
                    ni("pop", Reg("edx")),
                    ni("mov_rm", Reg("ebx"), _TOP),
                    ni("halt"),
                ])
                machine = Machine(image)
                try:
                    machine.run()
                    fault = None
                except MachineFault as exc:
                    fault = str(exc)
                seen.append((mnemonic, a, b, machine.regs,
                             machine.flags_val, machine.steps, fault))
    return _digest(seen)


def _extraction(result):
    return (
        result.watermark, result.width, result.bf_entry,
        [(e.source, e.resumed_at) for e in result.events],
        result.events_observed, result.runs_found, result.run_lengths,
    )


def embed_digest(name: str) -> str:
    mark, seed = MARKS[name]
    image = _image(name)
    emb = embed_native(image, mark, WIDTH, TRAIN_INPUT, rng_seed=seed)
    marked = emb.image
    got = extract_native(marked, WIDTH, emb.begin, emb.end, TRAIN_INPUT)
    auto = extract_native_auto(marked, TRAIN_INPUT, width=WIDTH)
    negative = extract_native(image, WIDTH, emb.begin, emb.end, TRAIN_INPUT)
    assert got.watermark == auto.watermark == mark
    assert negative.watermark is None
    return _digest(
        hashlib.sha256(marked.text).hexdigest(),
        hashlib.sha256(bytes(marked.data)).hexdigest(),
        marked.data_base, marked.entry, marked.bss_bytes,
        sorted(marked.symbols.items()),
        emb.begin, emb.end, emb.bf_entry, emb.call_addresses,
        emb.tamper_jumps, emb.obfuscated_calls, emb.original_size,
        _extraction(got), _extraction(auto), _extraction(negative),
    )


PINNED_RUNS = {
    ("bzip2", "train"):
        "a7078793d71427730924669a457c1dc34c1b4484dee0674c682623558257c160",
    ("bzip2", "ref"):
        "87e33a9e6f86e46791c617fce2a4da69c7f0c9cca27024b4600aa5cf06a932f3",
    ("crafty", "train"):
        "6035593cc3390d5ff331f64575298bde3383f12b03c14a50637b19adcc5b7292",
    ("crafty", "ref"):
        "d0b04719981ad63971be4d9c712c0e3b497563724adde53dbd0fda5ca6ec2b2c",
    ("gap", "train"):
        "a4bde0da758a989f35b108e08e22422738d762e82d18ee10bcaa8c6402ce9586",
    ("gap", "ref"):
        "e1a9b010c59a2b1b92b68768622fcf50a7811ea8aa8dc3597584a332ad16c3fd",
    ("gcc", "train"):
        "6d92cbb8dd9cf778d722497678e0c783817a4d640605c0e6fe36e0d43c61aa85",
    ("gcc", "ref"):
        "7ba802fcb6df1ec888ad348103e328b0a2162f1ba0a61fc35cf9ef72459a19b7",
    ("gzip", "train"):
        "1c98ed4f83d2a6b911a266314628df44c915a869ade4ab274aec164ccf6dbf18",
    ("gzip", "ref"):
        "6097a8b24a8d8631030b2287d45c95767bc74cfbb495eba6313a38e79e19f85c",
    ("mcf", "train"):
        "b2afd0be01fa147e45e87642fc4c2f829bfd4a68b79abcec8796ba3cdba733f8",
    ("mcf", "ref"):
        "71c0459ede3d527baf1df09c7f6f243bc308f27a6b45b33220423b40610032f4",
    ("parser", "train"):
        "0d17e0578cac0e0f0d73593e2524171d995cf005ed0e5f814b8f0be18c378d21",
    ("parser", "ref"):
        "3660d6f9f9166ee9eaab63ae9cf345b8a411d55d4f37f73ec7f122847956d0b5",
    ("twolf", "train"):
        "87e9b1dca44b7eb4593cacd9ca16a5c7ad76216839594b7431529801ee557d4c",
    ("twolf", "ref"):
        "59277c434a0a3f9e8328a55730a2440c76de9dbbf59b34e7d4d981ca4f2bce16",
    ("vortex", "train"):
        "e763326ac8d41f454cad6eb401073f2fd2ced51fc61a1b8aa73d439221968bab",
    ("vortex", "ref"):
        "9a4d6a7f6b4f47526ce5b6b6655967f4ae6e27c54d7756e866dc96cfb4eb4bdf",
    ("vpr", "train"):
        "c1a75be6e7fd22ebc0b7b3721d0acf30662d1cb58c82f207d5c2a41fc6f6227b",
    ("vpr", "ref"):
        "84c6957daaf78cf5b371461d509d44c09e70288687d31b5b1ecf4570594c4cc0",
}
PINNED_PROFILES = {
    "bzip2":
        "cefb622c147a4dfd96dd7481b6f84b7a68b7fbbb23e08655b2767a6e5391325b",
    "crafty":
        "e3bc789689eeecc1db15b1069d52c2147e7f2fbd5542c2600e436f3e7d71f123",
    "gap":
        "db3f894b2169d0460d1896e0aac400abe37df7f946be949c73b7a7ff2317a1fa",
    "gcc":
        "1a5809d0b95cdfd0eeff3b46a13dd4809ed123c3c0c26fdd6701fd792b7ddb7a",
    "gzip":
        "ba7678dbd95deb8897ea7605a84323ee8d05ff6e26e9b8aae7a487c4421cd7a5",
    "mcf":
        "0191e14694f3798c9d339187847b53e3986ff6cfff292d4e69bae78310224080",
    "parser":
        "494225cb6b361bdd52213ccffb6ceaa106dba123dd4ec1668bf4866aaf246d40",
    "twolf":
        "e508ad5d2f3580bb42373b3d6c09d85292e57c2cc5580da6ab43dc8f464b14d5",
    "vortex":
        "98b119fb3e15d38292bf20487ef48c71d525d1012bc0e08e089a41be264e531e",
    "vpr":
        "2fa386fcbb37c292fba384b33700e0c2c8ed7ab456d5d983e1ea3dbe7bc4479f",
}
PINNED_BUDGET = {
    "bzip2":
        "523fd2b6e48cf44fe181792544791bfc69a67a409c5a60fd9dff24386e3a0427",
    "crafty":
        "f712794b9e3c810b4c4758cc18dfef3442d4d7b329941486ba7933cfa240561a",
    "gap":
        "134ca42e5d482bc927c64542cc902342dd77d3685740291406940e6612b36659",
    "gcc":
        "a19392cc92c1b1bce496dd23738fd9654def948cc04c697f2cb6ae3f65b38b29",
    "gzip":
        "1b15fcf688d7df311fa6a414601ac4276e1916cc984c560a3cd483beff629aff",
    "mcf":
        "21405c1c72318b861e2ac62fb2b6be8e4c09f2ac979d3625e2f977a37d89440d",
    "parser":
        "cdfc6e157c576368948d567d437a02f33fc2c4385d19268b3aa5f05938e0329e",
    "twolf":
        "9e76c6296fa87c667d3635fc575ed4515b3f424ba97f08a7cacd5579b7663db6",
    "vortex":
        "874bfb6d96f9767d2d8cd6c62e7c53d062b4146810be5b118b9a6059f25f8743",
    "vpr":
        "0a0e32e72a117c3e72e6c8203b54127d245bfb003341e24060cb656dbef61889",
}
PINNED_EMBEDS = {
    "bzip2":
        "260d2fdf5f56a7c2ac692165d747a04c89a7f56e7303bddcddb04bd68bc4ee4e",
    "gcc":
        "7aaba92e98b30cc52a363e0d81fc275616363a33dc0ad11192e607234d4f1e03",
    "mcf":
        "79d5ae96069cc2177b2482594a85ef7091c2249cc70a4284d8a97f4226236212",
    "vortex":
        "c4440a57bbc594cde48f39faf1b26f37b1bdf8353e85a5ef02b5b94748eb4bd0",
    "vpr":
        "173d17b1293979db21258702543d57638f0e9fa6aa5ca54caec32d87bfb70f71",
}


@pytest.mark.parametrize("name", _tier(SPEC_PROGRAMS, FAST_KERNELS))
@pytest.mark.parametrize("which", ["train", "ref"])
def test_run_matches_pin(name, which):
    inputs = TRAIN_INPUT if which == "train" else REF_INPUT
    assert run_digest(name, inputs) == PINNED_RUNS[(name, which)]


@pytest.mark.parametrize("name", _tier(SPEC_PROGRAMS, ("mcf",)))
def test_profile_matches_pin(name):
    assert profile_digest(name) == PINNED_PROFILES[name]


@pytest.mark.parametrize("name", _tier(SPEC_PROGRAMS, ("mcf",)))
def test_budget_fault_matches_pin(name):
    assert budget_digest(name) == PINNED_BUDGET[name]


@pytest.mark.parametrize("name", _tier(sorted(MARKS), ("mcf",)))
def test_embed_matches_pin(name):
    assert embed_digest(name) == PINNED_EMBEDS[name]


PINNED_OPERATIONS = (
    "e99a52ab6412e64e95587674ae5aa34d8f59278fce29785cf52bbb5c127ec69e"
)


def test_operations_match_pin():
    assert operations_digest() == PINNED_OPERATIONS
