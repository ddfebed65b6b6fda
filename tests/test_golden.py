"""Golden digests: the bytes of small `sstc` runs, pinned.

Each train run trains on seeded synthetic data, in-process, and writes its
model and its `--metrics` records.  Each compress run compresses a seeded
four-layer float model, from a `.sstw` file (named layers, a batch norm and
a weight norm) and from an `.npz` file, under one policy; its output is then
decompressed, reported, verified and served with `infer --trace`.  Files
are hashed, and the stdout of the commands that print no path.  A change
that alters an output on purpose updates its digest here and names its
reason.  The digests were the same at OPENBLAS_NUM_THREADS=1 and 2.
"""

import hashlib

import numpy as np
import pytest

from sstc.cli import main
from sstc.store import BatchNormParams, WeightNormTag, model_from_arrays, write_model

TRAIN_RUNS = {
    "column-8-1-weight-norm": (
        ["--data", "synthetic:samples=1500", "--arch", "32,32,32,3", "--code", "8,1",
         "--normalizer", "weight_norm"],
        "cceeda8069c081e41cb52eff1cdfa30a28e7cbca46c657f111b4a6744e78400c",
        "a41b1428196848b89b69735b10761636cce7d27ee43a7b080f865c56e1251ca2"),
    "row-8-2-weight-norm": (
        ["--data", "synthetic:samples=1500", "--arch", "32,32,32,3", "--code", "8,2",
         "--orientation", "row", "--normalizer", "weight_norm"],
        "266e24e4f56847dafdbcb300dbba0b4ae150a05139b579201e184d7703491c2d",
        "faac2b4d9f657bc437d305073f783a69a92eda576d5a5aa99f9c0e5b2deb50cd"),
    "column-16-3-batch-norm": (
        ["--data", "synthetic:samples=1500,dim=64", "--arch", "64,32,32,3", "--code", "16,3",
         "--normalizer", "batch_norm"],
        "790c38efc11b7030320489b394dd747fe48cb19d6845b479f75813af7280a39a",
        "10aaf410c1505213f61de5de94d2c064f41f9d28e4b991aa7faae0656f772ad5"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", TRAIN_RUNS)
def test_train_writes_its_golden_model_and_metrics(tmp_path, capsys, name):
    args, model_digest, metrics_digest = TRAIN_RUNS[name]
    model, metrics = tmp_path / "model.sstw", tmp_path / "metrics.jsonl"
    assert main(["train", *args, "--epochs", "2", "--float-epochs", "1", "--seed", "3",
                 "--out", str(model), "--metrics", str(metrics)]) == 0
    capsys.readouterr()
    assert (_sha256(model), _sha256(metrics)) == (model_digest, metrics_digest)


# input dim 48, then fc0 32x48, fc1 24x32, fc2 16x24, fc3 3x16
_DIMS = (48, 32, 24, 16, 3)

# per policy, the lines of its file for the first two layers, named {0} and {1}
COMPRESS_POLICIES = {
    "ternary": "default format=ternary\n",
    "sst16-3-fixed8": ("default format=ternary\n{0} format=sst n=16 k=3\n"
                       "{1} format=fixed8\n"),
    "row8-2-float32": ("default format=ternary\n{0} format=sst n=8 k=2 orientation=row\n"
                       "{1} format=float32\n"),
}

COMPRESS_DIGESTS = {
    "sstw/ternary/compress":
        "39939afd6fa03c5592c872b13013413c78850e50752c36c8526bb127469b9317",
    "sstw/ternary/decompress":
        "a021c0b693c4439ce4ceb7bbdfe5a81ce20ad1bb9d768c92a5244cce85885ff4",
    "sstw/ternary/report":
        "1b5b2c7c39d506b1037347498e00feb2c4459f10b162855f7527310285b5624c",
    "sstw/ternary/verify":
        "3dbd26fd89a66ba3e757a728e473190de80c01c60ddb0ae58e7fb066c47e6987",
    "sstw/ternary/infer":
        "6cc8332d12b0d148c46ae26efde8af97a3298a95898769ee1f91ebde026f855e",
    "sstw/sst16-3-fixed8/compress":
        "05ea9e7159f8c437001c22b020539362120e0b2b833c947f04207adc7fb123b7",
    "sstw/sst16-3-fixed8/decompress":
        "0bcfec0b00557e3c7f23d2cb780728632eaa2267c8eae196149cdedaad5c9a76",
    "sstw/sst16-3-fixed8/report":
        "30d608b525b6420cdd10b19c97268378f9ba252806a478da880ee9f38a864d73",
    "sstw/sst16-3-fixed8/verify":
        "61fe51352737fae9c698c02a398fd6af2306dec137de746752e088fb3b814188",
    "sstw/sst16-3-fixed8/infer":
        "92389f01a7184cfad65264488bee9bc321d4aa01f522b4653de92d52d6e114c8",
    "sstw/row8-2-float32/compress":
        "e673ab4bfd4f395843f786d619c3c9f628ab21d7530f4f5cef21e466a8961e77",
    "sstw/row8-2-float32/decompress":
        "3d2dd427b718f321004769b53d46eff2f7dda9aa1aab1b8cbba6624c8266cb58",
    "sstw/row8-2-float32/report":
        "2d7d2fad80b32a092385ff7318714c998426c988043e796c1cc7471f862a0844",
    "sstw/row8-2-float32/verify":
        "61fe51352737fae9c698c02a398fd6af2306dec137de746752e088fb3b814188",
    "sstw/row8-2-float32/infer":
        "518a4422e261e14408310ef8d3a44656374c214ae0d7d3a26dc83e0978e2f7cc",
    "npz/ternary/compress":
        "bdb9b85e9047294d2df7dcbc861b3e7c7d9c4aa7d0e096db47228a79ca4ba067",
    "npz/ternary/decompress":
        "f6c4ede90e09434bf4fe7eee78e5d58eb062805001bfbb0e84554d2c44759263",
    "npz/ternary/report":
        "03c7c72c4c148dad4cf22b8da4d0ae5473a5cd22d08e8d43a62eedae7c34ff39",
    "npz/ternary/verify":
        "3dbd26fd89a66ba3e757a728e473190de80c01c60ddb0ae58e7fb066c47e6987",
    "npz/ternary/infer":
        "6cc8332d12b0d148c46ae26efde8af97a3298a95898769ee1f91ebde026f855e",
    "npz/sst16-3-fixed8/compress":
        "c3fc24fc370b923517f9347f3f96b1305b6d0fc107528b6066551e4929263574",
    "npz/sst16-3-fixed8/decompress":
        "516a1114d9447787433c6931a52634edf89576b49687879fa90ae804e6e1a2f5",
    "npz/sst16-3-fixed8/report":
        "3126cc3778c6eaba588e8584c153e12bffbc483fcd0dc7d99555f0893f97b562",
    "npz/sst16-3-fixed8/verify":
        "30e12352345425f277137b13db7b1d5e28385da266b47ade9df14b94730fd234",
    "npz/sst16-3-fixed8/infer":
        "ec14ae87ace5a41932bd645d3b37a21664da08e24bfa71511ece1b60f0cc488a",
    "npz/row8-2-float32/compress":
        "31c70512b14a17f14858c54cea406a010b70442199c4c89a7934be4fe1061c6e",
    "npz/row8-2-float32/decompress":
        "6d4c5177775776cf99c963ca7e53d2200d78342a8c27b6f7c7ebe0c2f8784b93",
    "npz/row8-2-float32/report":
        "d845040d5be36f0617692d90909ea344c558264e8ee0d0f6ef31543ef445c14a",
    "npz/row8-2-float32/verify":
        "30e12352345425f277137b13db7b1d5e28385da266b47ade9df14b94730fd234",
    "npz/row8-2-float32/infer":
        "673ed70dc71b5b0a060c09e071ebb10496115231bd1b737713c3d01478bad273",
}

TABLES_DIGEST = "c8d024646815fc67fdfb9e33184a7aca307ffa4c0123b1883485d525d830047e"


def _float_model_input(directory, kind):
    """The path of the seeded float model, as a `.sstw` or an `.npz` file,
    and its first two layer names."""
    rng = np.random.default_rng(24)
    pairs = [(rng.normal(size=(rows, cols)).astype(np.float32),
              rng.normal(size=rows).astype(np.float32))
             for cols, rows in zip(_DIMS, _DIMS[1:])]
    if kind == "npz":
        path = directory / "float.npz"
        np.savez(path, **{f"{key}{i}": array for i, pair in enumerate(pairs)
                          for key, array in zip("Wb", pair)})
        return path, ("layer0", "layer1")
    rows = _DIMS[1]
    batch_norm = BatchNormParams(rng.normal(size=rows), rng.normal(size=rows),
                                 rng.normal(size=rows), rng.uniform(0.5, 2.0, size=rows))
    names = [f"fc{i}" for i in range(len(pairs))]
    path = directory / "float.sstw"
    write_model(model_from_arrays(pairs, names, [batch_norm, WeightNormTag(), None, None]),
                path)
    return path, tuple(names[:2])


@pytest.mark.parametrize("kind", ["sstw", "npz"])
@pytest.mark.parametrize("policy", COMPRESS_POLICIES)
def test_compress_and_its_readers_give_their_golden_bytes(tmp_path, capsys, kind, policy):
    source, names = _float_model_input(tmp_path, kind)
    policy_file = tmp_path / "policy.txt"
    policy_file.write_text(COMPRESS_POLICIES[policy].format(*names))
    compressed, decompressed = tmp_path / "model.sstw", tmp_path / "float32.sstw"
    runs = {
        "compress": ["compress", "--input", str(source), "--output", str(compressed),
                     "--policy", str(policy_file)],
        "decompress": ["decompress", "--input", str(compressed), "--output", str(decompressed)],
        "report": ["report", "--model", str(compressed)],
        "verify": ["verify", "--model", str(compressed), "--trials", "4"],
        "infer": ["infer", "--model", str(compressed), "--data",
                  f"synthetic:samples=90,dim={_DIMS[0]}", "--trace"],
    }
    digests = {}
    for output, argv in runs.items():
        assert main([*argv, "--format", "records"]) == 0, output
        stdout = capsys.readouterr().out.encode()
        digests[output] = hashlib.sha256(stdout).hexdigest()
    digests["compress"], digests["decompress"] = _sha256(compressed), _sha256(decompressed)
    assert digests == {output: COMPRESS_DIGESTS[f"{kind}/{policy}/{output}"]
                       for output in runs}


def test_tables_give_their_golden_records(capsys):
    assert main(["tables", "--format", "records", "--codes", "1,1;8,1;16,3;16,16"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == TABLES_DIGEST

