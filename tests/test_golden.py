"""Golden digests: the bytes of small `sstc train` runs, pinned.

Each run trains on seeded synthetic data, in-process, and writes its model
and its `--metrics` records.  A change that alters either file on purpose
updates the digest here and names its reason.  The digests were the same at
OPENBLAS_NUM_THREADS=1 and 2.
"""

import hashlib

import pytest

from sstc.cli import main

TRAIN_RUNS = {
    "column-8-1-weight-norm": (
        ["--data", "synthetic:samples=1500", "--arch", "32,32,32,3", "--code", "8,1",
         "--normalizer", "weight_norm"],
        "5032f521412231f7c115b9190a9550ff98abe83eb02ea03c6a0c966c82c3ff34",
        "a41b1428196848b89b69735b10761636cce7d27ee43a7b080f865c56e1251ca2"),
    "row-8-2-weight-norm": (
        ["--data", "synthetic:samples=1500", "--arch", "32,32,32,3", "--code", "8,2",
         "--orientation", "row", "--normalizer", "weight_norm"],
        "5bb12fb9e5195b12093bb9081e0facccbbf3d6add4e69a45f67caf6cea138e19",
        "faac2b4d9f657bc437d305073f783a69a92eda576d5a5aa99f9c0e5b2deb50cd"),
    "column-16-3-batch-norm": (
        ["--data", "synthetic:samples=1500,dim=64", "--arch", "64,32,32,3", "--code", "16,3",
         "--normalizer", "batch_norm"],
        "72ceb30d65b7e94e2b19808759fdd7c51555acac78c6368c46154656f5ec8aaa",
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
