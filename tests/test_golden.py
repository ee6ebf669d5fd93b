"""Golden outputs: byte-level pins of every command's output files and of
challenge-round transcripts under fixed seeds.

The hashes were recorded before the protocol code was restructured; a
refactor that changes any output byte, transcript digest, codeword string or
decoded certificate fails here.  Never regenerate them to make a change pass:
a change that alters outputs on purpose says so and why.
"""

import hashlib
import random
from functools import partial

import pytest

from certlab.codes import DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS, get_code
from certlab.concepts import ExampleLayout
from certlab.harness.cli import main
from certlab.harness.corpus import forcing_formula
from certlab.paclearn import junta_learner, sparse_erm
from certlab.verifiers import FormulaEncoding, ThreeSatVerifier
from oracles import FixedProofMerlin, HonestMerlin, am_round, to_dimacs


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(tmp_path, command, cfg_text, seed):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(cfg_text)
    code = main([command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def forcing_corpus(tmp_path) -> str:
    """Three forcing formulas as DIMACS files; each has a nonzero first
    certificate, so no proof accepts them by the all-zero codeword."""
    paths = []
    for i, args in enumerate(((6, 3, 2), (5, 2, 2), (6, 4, 1))):
        path = tmp_path / f"force{i}.cnf"
        path.write_text(to_dimacs(forcing_formula(*args)))
        paths.append(str(path))
    return ",".join(paths)


CLI_CASES = {
    "enumerate": ("enumerate", "corpus.kind = exhaustive2var\n", 1),
    "vcdim": ("vcdim", "corpus.kind = exhaustive2var\n", 2),
    # 5,441 candidate points, 14,799,520 pairs of them
    "vcdim-random1000": ("vcdim", "corpus.kind = random\ncorpus.count = 1000\n", 0),
    "codes-test": ("codes-test", "codes.lengths = 4,8\ncodes.samples = 300\n", 3),
    "codes-test-exhaustive": (
        "codes-test",
        "codes.lengths = 4,6\ncodes.exhaustive_limit = 1000000\n",
        10,
    ),
    "learn": (
        "learn",
        "corpus.kind = single_clause\nlearn.m = 0,6,20\nlearn.trials = 12\n",
        4,
    ),
    # p = 6: 64 index values; all four distributions at m = 0
    "learn-random-p6": (
        "learn",
        "corpus.kind = random\ncorpus.count = 20\ncorpus.vars_max = 6\n"
        "learn.m = 0,1,9,47\nlearn.trials = 25\n",
        11,
    ),
    "reduce-random-standard": (
        "reduce",
        "corpus.kind = random\ncorpus.count = 12\ndecider.m = 8\ndecider.r = 3\n",
        5,
    ),
    "reduce-random-uniform": (
        "reduce",
        "corpus.kind = random\ncorpus.count = 12\ndecider.m = 8\ndecider.r = 3\n"
        "decider.variant = uniform\n",
        6,
    ),
    "reduce-forcing-standard": ("reduce", "corpus.kind = dimacs\ncorpus.paths = {paths}\n", 7),
    "reduce-forcing-uniform": (
        "reduce",
        "corpus.kind = dimacs\ncorpus.paths = {paths}\ndecider.m = 10\n"
        "decider.variant = uniform\n",
        8,
    ),
}

CLI_GOLDEN = {
    "codes-test": {"radius_report.txt": "b426f088919b95f8f44cd340a075bc607ae46cdd6d791a61f0798a09125389d5"},
    "codes-test-exhaustive": {
        "radius_report.txt": "bf771237980de553ed8bbf63c917bb12723981284fb4401e65d1f3ea73a70adb"
    },
    "enumerate": {"trees.txt": "94094336ce1d972d26fbcf21c49193bbe206c14c67be5220f3a8401ae84eccd4"},
    "learn": {"learn.csv": "9dcc578526a24af2f17e35981036ad57a51f54ce7772b865c4b994bc9dc379df"},
    "learn-random-p6": {"learn.csv": "a9f4184e757bdd8d69c655ec415c13850e922b8873ec032f9ff7cf3b027f93cc"},
    "reduce-forcing-standard": {
        "decider_report.txt": "c20875402028933f6397fa468530954a2894c7a77effafd30bcb483977f42671"
    },
    "reduce-forcing-uniform": {
        "decider_report.txt": "88b9a8a940e867774c96e45e7ab5b47130d9f47a741832123c72f5a61bd643be"
    },
    "reduce-random-standard": {
        "decider_report.txt": "5429810108df5553c477ce5cf0176ef95fcf41603fb1ba766e0db92332fca992"
    },
    "reduce-random-uniform": {
        "decider_report.txt": "dac62cee626a39e9ad3b2d4bf8f54109a6b07e33351b53e3c1bb5bd45a11e1a8"
    },
    "vcdim": {"dimension_report.txt": "6aba981bfde111e9e1ce3dc8563b30692eeb06b7fed5a6ce984538bd5ec6852a"},
    "vcdim-random1000": {
        "dimension_report.txt": "11b5ad71acb64ade59dcf8a506946d957e1814a0c03d19d461b144c48aca2a66"
    },
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_outputs_are_byte_identical(tmp_path, case):
    command, cfg_text, seed = CLI_CASES[case]
    if "{paths}" in cfg_text:
        cfg_text = cfg_text.format(paths=forcing_corpus(tmp_path))
    code, files = run(tmp_path, command, cfg_text, seed)
    assert code == 0
    assert {name: sha(data) for name, data in files.items()} == CLI_GOLDEN[case]


def test_tradeoff_outputs_are_byte_identical(tmp_path):
    cfg = "tradeoff.vars = 10\ntradeoff.m = 1,4,8\ntradeoff.trials = 3\ntradeoff.factor = 50\n"
    code, files = run(tmp_path, "tradeoff", cfg, 9)
    assert code == 0
    assert sorted(files) == ["tradeoff.csv", "tradeoff_summary.txt"]
    assert sha(files["tradeoff.csv"]) == (
        "94b04f4c38366418f3062fc1cdf80ed86eec0dfbb1e489e6a55314724e029d5b"
    )
    summary = files["tradeoff_summary.txt"].decode()
    # the lines from the wall-clock header on vary from run to run
    steady = summary.split("wall clock")[0]
    assert sha(steady.encode()) == (
        "a5187359cc974a35bd18ddddf09febc541e8f1379d39469d2eb9d69dd6adeb23"
    )


#: The CSVs at each command's default config, seed 0: the config the
#: benchmark's tradeoff workload runs, which the pins above do not use.
DEFAULT_GOLDEN = {
    "tradeoff": ("tradeoff.csv", "c00dcadca61cbba90c20a0c3754eef9121df8fde00f81e9c55ee2d05fdf86bcf"),
    "learn": ("learn.csv", "8053c61d7f75d5f647d7aec0ac794ed8ab87f798e5444f436b4694d7d291e81c"),
}


@pytest.mark.parametrize("command", sorted(DEFAULT_GOLDEN))
def test_default_config_csvs_are_byte_identical(tmp_path, command):
    name, digest = DEFAULT_GOLDEN[command]
    code, files = run(tmp_path, command, "", 0)
    assert code == 0
    assert sha(files[name]) == digest


# -- challenge rounds -------------------------------------------------------------

FORCING = forcing_formula(6, 3, 2)
ENC = FormulaEncoding(max_vars=6, max_clauses=len(FORCING.clauses))
VERIFIER = ThreeSatVerifier(ENC)
Z = ENC.encode(FORCING)
UNIFORM_LAYOUT = ExampleLayout.of(VERIFIER.n, REDUCTION_CODE_PARAMS, VERIFIER.p, "uniform")


def challenge_round(variant, merlin, seed, m):
    learner = partial(junta_learner, layout=UNIFORM_LAYOUT) if variant == "uniform" else sparse_erm
    return am_round(
        Z, VERIFIER, learner, merlin, REDUCTION_CODE_PARAMS,
        random.Random(seed), m, variant=variant, seed_label=str(seed),
    )


ROUND_GOLDEN = {
    ("standard", "honest"): "9029ed9e34e6a090fbe28e7b8609b7caa929ac0c1f881d65aaa7d64c190414c4",
    ("standard", "fixed"): "293356dc751ae1294f9f6a7592ac8b45c182978dc4254fc3519668b6cd30418e",
    ("uniform", "honest"): "f936f4c8dc86fb736fabc32b0b956e5692da5ca816761b68a19a5eb0faa1e8c9",
    ("uniform", "fixed"): "2839ad93727881dde56600ebe5036d07273946e25b10349cb0bfcd120cc9e519",
}


@pytest.mark.parametrize("variant", ["standard", "uniform"])
@pytest.mark.parametrize("merlin_kind", ["honest", "fixed"])
def test_round_transcripts_are_identical(variant, merlin_kind):
    m = 24 if variant == "standard" else 60
    lines = []
    for seed in range(6):
        honest = challenge_round(variant, HonestMerlin(), seed, m)
        if merlin_kind == "honest":
            transcripts = [honest]
        else:
            # the honest labels flipped on every index divisible by 5 (the same
            # draws, labels a function of the point), then arbitrary labels
            # that contradict themselves on repeated points
            flipped = "".join(
                str(int(b) ^ (int(i, 2) % 5 == 0))
                for b, i in zip(honest.merlin_labels, honest.indices)
            )
            arbitrary = format(random.Random(f"labels:{seed}").getrandbits(m), f"0{m}b")
            transcripts = [
                challenge_round(variant, FixedProofMerlin(labels), seed, m)
                for labels in (flipped, arbitrary)
            ]
        for t in transcripts:
            lines.append(f"{t.digest()} y={t.y} w_tilde={t.w_tilde} failed={t.failed}")
    assert sha("\n".join(lines).encode()) == ROUND_GOLDEN[(variant, merlin_kind)]


# -- decoding ---------------------------------------------------------------


def seeded_words(code, rng, count):
    """Every fourth word uniform; the rest codewords of random messages with
    0 to 2*radius + 2 errors, so within and beyond the radius."""
    n = code.codeword_len
    words = []
    for i in range(count):
        if i % 4 == 0:
            words.append(rng.getrandbits(n))
        else:
            k = rng.randint(0, 2 * code.radius + 2)
            errors = sum(1 << j for j in rng.sample(range(n), k))
            words.append(code.encode_value(rng.getrandbits(code.message_len)) ^ errors)
    return words


DECODE_GOLDEN = {
    (DEFAULT_CODE_PARAMS, 16): "c90f473c5448d3d3fddce6545e02b4d9c637195437370a69d0ce43db0a18c719",
    # the decider's code for 8-variable formulas
    (REDUCTION_CODE_PARAMS, 8): "1d3827ea44527e8a7806cb11232a9ccc0604f4cd15cdcbbaf3361a55e0f5fb77",
}


@pytest.mark.parametrize("params, m", list(DECODE_GOLDEN))
def test_decode_value_outputs_are_identical(params, m):
    code = get_code(params, m)
    words = seeded_words(code, random.Random(f"decode:{params.c}:{m}"), 2000)
    out = ",".join(str(code.decode_value(y)) for y in words)
    assert sha(out.encode()) == DECODE_GOLDEN[(params, m)]
