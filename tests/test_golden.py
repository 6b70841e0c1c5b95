"""Golden-bytes test: pinned SHA-256 hashes of the CLI's output.

Each case runs ``cli.main`` on a fixed command line over literal input files
and compares the hash of its standard output (and its exit code) with a
pinned value, so any change to the output bytes of ``sample``, ``check`` or
``volume`` shows up here.  Besides the package, the hashes depend on:
- numpy's PCG64 bit generator and its ziggurat Gaussian and uniform
  streams: a numpy release that changes either changes the hashes;
- numpy's SIMD dispatch of ``power`` (the radius u^(1/n)): with
  ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, numpy as on
  an AVX2-only CPU, 6 cases move;
- the OpenBLAS kernel of the CPU's core type (the affine maps, and LAPACK's
  ``inv`` and ``det``): ``OPENBLAS_CORETYPE=Haswell`` moves no case here but
  the 3 pull-back bit pins of ``tests/test_geometry.py``, and
  ``Sandybridge`` those and 9 cases here.
Neither the number of threads the package runs on nor OpenBLAS's own thread
count moves them.  The cases run in this process, with OpenBLAS's default
thread count, and ``test_one_blas_thread_gives_the_pinned_bytes`` runs every
case with ``OPENBLAS_NUM_THREADS=1``, the setting ``python -m ellipsample``
runs with unless its caller set another.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from ellipsample.cli import main
from helpers import child_env, dense_shape_text

ROTATION = "0.6 -0.8\n0.8 0.6\n"
QUADRATIC = "4 1 0.5\n1 3 0.25\n0.5 0.25 2\n"
SHAPE = "# non-symmetric transform\n1 0.2 0\n0.1 2 0.3\n0 -0.4 0.5\n"
FOCI = [[0.0, 1.0, -1.0], [2.0, 1.0, 0.0]]
SPEC = {
    "dim": 2,
    "radii": [3.0, 0.5],
    "rotation": [[0.6, -0.8], [0.8, 0.6]],
    "foci": [[-1.0, 0.0], [1.0, 2.0]],
}


DENSE_DIMS = (5, 17, 33, 64)

# name -> (argv with {R}/{Q}/{S}/{F}/{SPEC}/{D<n>} file placeholders, exit code, sha256 of stdout)
CASES = {
    "sample-csv": (
        "sample --radii 2,1 --centre 1,0 --count 300 --seed 7",
        0,
        "156c44788d8d9d075a402f18250d278ee11891b524a9a355a21fa1848d9c58c8",
    ),
    "sample-json-rotation": (
        "sample --radii 2,1 --rotation {R} --centre=-1,0.5 --count 50 --seed 3 --format json",
        0,
        "5654bfb45c2f9bcb678282954715aa360181a94c49cbf4c80cfb347c4ed071e0",
    ),
    "sample-svg": (
        "sample --dim 2 --count 200 --seed 5 --format svg",
        0,
        "51253aca67641690deaab3f7bfc3e6b7071a9e756b843c83c572abe7104d4a77",
    ),
    "sample-quadratic": (
        "sample --quadratic {Q} --count 100 --seed 11",
        0,
        "1bee589856129b2ee34998f46863b9f16ac8165f5e90cec980db981b89de91ae",
    ),
    "sample-shape-foci": (
        "sample --shape {S} --foci {F} --count 100 --seed 13 --format json",
        0,
        "a16a1bf10c1e1b7838731b1f4719fc9c9b75fc64092756cea07dabcf72b8224a",
    ),
    "sample-spec": (
        "sample --spec {SPEC} --count 100 --seed 17",
        0,
        "bdaaf7439376260b3a58a57276e1278f5d220288e6ff6be7207b18fde419c3c1",
    ),
    "sample-reject": (
        "sample --radii 2,1 --method reject --count 500 --seed 9 --format json",
        0,
        "26c6bdbfc96a8705d1c2e8a630f93a8d3b932fe0e2a15e58a4a3c08d1eb6b569",
    ),
    "sample-biased": (
        "sample --dim 3 --method biased --count 100 --seed 9",
        0,
        "b9752b85a65b509227b31a4f42039a675392371499be00e1abf178b45c918bec",
    ),
    "check-default": (
        "check --radii 2,1 --centre 1,0 --count 20000 --seed 7",
        0,
        "87e725150f8a1365151a0bc18dc2c31983e1389b11f56ccda039e5bf2d8a07b3",
    ),
    "check-ks-identity": (
        "check --quadratic {Q} --count 5000 --seed 7 --tests ks,identity",
        0,
        "ba0f18a2bc3ae8a229bf0fa6bd7a6e771f9a2b55cf9f20aabc405c773193e06a",
    ),
    # Reports come in --tests order, identity first or between the pull-back tests.
    "check-identity-first": (
        "check --radii 2,1 --count 3000 --seed 4 --tests identity,chi2,ks",
        0,
        "e9b8b448243bf6da1b171ca40da78ba1eff16ab397fc44da70095119b443e4cd",
    ),
    "check-identity-middle": (
        "check --dim 3 --count 5000 --seed 6 --tests chi2,identity,ks",
        0,
        "db42579d50b7d7c08a02ceda77d4407026df0d7e623d8c6f2903f327072a362a",
    ),
    # Counts past CHUNK_SIZE (8192) so the rows cross chunk boundaries.
    "sample-csv-chunks": (
        "sample --radii 2,1 --centre 1,-0.5 --count 16389 --seed 4",
        0,
        "5dc1d6f989db3a2abf422f6bd5dd4bab81d995b07efffbe3822ccabc43aa6933",
    ),
    "sample-svg-chunks": (
        "sample --radii 2,1 --centre 1,-0.5 --count 16389 --seed 4 --format svg",
        0,
        "dc263147f63f2c9226cca16f8657ee1d5ea7d2dbc9faa419f56701f1bc237439",
    ),
    "sample-json-chunks": (
        "sample --radii 2,1 --centre 1,-0.5 --count 16389 --seed 4 --format json",
        0,
        "b6014bff282d7d7068e72de29e3fb3c21537b5f2e9be0bcd2acdf1a6089a9796",
    ),
    "sample-biased-chunks": (
        "sample --dim 5 --method biased --count 8193 --seed 3",
        0,
        "68543ca69895c74efa8dc6f29e14c9cd5f2f7edaa22edc706fb779a6b53e45fc",
    ),
    "check-quadratic-chunks": (
        "check --quadratic {Q} --count 16389 --seed 5 --tests chi2,ks",
        0,
        "78bcfecd555050b365a4c6cd4fd5bd06e46dc7f70c5b47a9ed44ace5a180a875",
    ),
    "check-10d-chunks": (
        "check --dim 10 --count 40961 --seed 2",
        0,
        "b762494c85cfb9d5af5cdb7b5900bfc3727310581f818786f6cd8b08cda06602",
    ),
    # Above 62 dimensions there are no orthant codes; KS alone.
    "check-64d-ks-chunks": (
        "check --dim 64 --count 8193 --seed 3 --tests ks",
        0,
        "26f1d8f5dcb5cbfac0ced019dd37a74e885b1154b85d54d366320e64bb19e970",
    ),
    # One chunk: 190,464 box proposals, drawn in 93 passes of one 2048-row piece, 3000 accepted.
    "sample-reject-8d-pieces": (
        "sample --dim 8 --method reject --count 3000 --seed 4 --format json",
        0,
        "b969d86f9f150ac782ddb78c3bb28849e73126dfca3053f0504d873957e10a12",
    ),
    # Dense shapes at dimensions where BLAS kernels round differently.
    "sample-dense-17d": (
        "sample --shape {D17} --count 16384 --seed 21 --format json",
        0,
        "5ea8618bec17d5d5c6df74c9aaaec63255b481796d9f959d16bfdc64f02def8e",
    ),
    "sample-dense-33d": (
        "sample --shape {D33} --count 16384 --seed 22 --format json",
        0,
        "68dc9d4e1c3b0bdd0d010839bf96b75bf3f90af4d4d2222c5fdf5deb782e6f6d",
    ),
    "sample-dense-64d": (
        "sample --shape {D64} --count 16384 --seed 23 --format json",
        0,
        "0dd417a547d05e4719f5c2a9c8bce5f6fd3698cb827ad1ea7c9becbb188d9e15",
    ),
    # One row past a chunk boundary: a lone last row on a general shape.
    "sample-dense-5d-chunks": (
        "sample --shape {D5} --count 8193 --seed 3",
        0,
        "de965d7561229ae38bad85491fc2f28dadb883a1293e76b6bccb4040fd5e4277",
    ),
    "volume-mc": (
        "volume --radii 2,1 --seed 1 --mc 20000",
        0,
        "355d876269995e6d1feea898e6788c5453f39b48b499c5826ec73fadd6203fc7",
    ),
    # Past _MC_CHUNK (262144) draws, so the estimate spans two chunks.
    "volume-mc-chunks": (
        "volume --radii 2,1 --seed 1 --mc 300000",
        0,
        "be59e3722629389a84f8b658b45cf04ae95107db2bce099604e13e67458acdff",
    ),
    # Past one _MC_CHUNK at 12 dimensions, in 1365-row pieces.
    "volume-mc-12d-pieces": (
        "volume --dim 12 --seed 5 --mc 300000",
        0,
        "ba9cf65f71f0467d1734dba6e0a8ecf195dc68bd14a09250d78d4a477958a8ce",
    ),
    "volume-quadratic": (
        "volume --quadratic {Q} --seed 1",
        0,
        "71adb90a397f180d306b3a010a9cf77997c970b8acbc3996913cbb7d865ad00e",
    ),
}


@pytest.fixture
def files(tmp_path):
    paths = {
        "R": tmp_path / "rotation.txt",
        "Q": tmp_path / "quadratic.txt",
        "S": tmp_path / "shape.txt",
        "F": tmp_path / "foci.json",
        "SPEC": tmp_path / "spec.json",
    }
    paths["R"].write_text(ROTATION)
    paths["Q"].write_text(QUADRATIC)
    paths["S"].write_text(SHAPE)
    paths["F"].write_text(json.dumps(FOCI))
    paths["SPEC"].write_text(json.dumps(SPEC))
    for n in DENSE_DIMS:
        paths[f"D{n}"] = tmp_path / f"dense{n}.txt"
        paths[f"D{n}"].write_text(dense_shape_text(n))
    return {key: str(path) for key, path in paths.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(name, files, capsys):
    template, expected_code, expected_hash = CASES[name]
    code = main(template.format(**files).split())
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected_hash


def test_out_file_bytes_equal_stdout(tmp_path, capsys):
    argv = CASES["sample-csv-chunks"][0].split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / "out.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("utf-8")


# Runs each (name, argv) of a JSON list on sys.argv[1] through cli.main and prints
# one JSON object of name -> [exit code, sha256 of standard output].
_CHILD = """
import hashlib, io, json, sys
from ellipsample.cli import main
results = {}
for name, argv in json.loads(sys.argv[1]):
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    code = main(argv)
    sys.stdout.flush()
    results[name] = [code, hashlib.sha256(sys.stdout.buffer.getvalue()).hexdigest()]
sys.stdout = sys.__stdout__
print(json.dumps(results))
"""


def test_one_blas_thread_gives_the_pinned_bytes(files):
    # The setting is on the child only: OpenBLAS reads it once, when numpy loads.
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "1"}
    cases = [[name, template.format(**files).split()] for name, (template, _, _) in sorted(CASES.items())]
    result = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(cases)], env=env,
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == {name: [code, digest] for name, (_, code, digest) in CASES.items()}
