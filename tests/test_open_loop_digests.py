"""Pin open-loop replay columns by sha256 for every paper configuration.

``test_kernel_equivalence`` and ``test_idle_arrival_replay`` compare the
columnar evaluator with the DES through the same open-loop driver, so they
cannot see a change to the driver itself, and the
Fig 16/10 artifacts cover DRM1 only.  These digests pin the E2E,
aggregate CPU and per-shard CPU columns of a 25 QPS Poisson sweep, one
per (model, configuration).  Clock skew is on: the columns must not
depend on it.  A change to how open-loop arrivals are injected shows up
here as a digest change.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.experiments import SuiteSettings, run_suite
from repro.models.zoo import build
from repro.requests import ReplaySchedule
from repro.serving import ServingConfig

SETTINGS = SuiteSettings(
    num_requests=60,
    pooling_requests=200,
    serving=ServingConfig(seed=1, clock_skew_sigma=2e-5),
    schedule=ReplaySchedule.open_loop(25.0, seed=5),
)

DIGESTS = {
    ("DRM1", "singular"): (
        "b35f352a839b60d8119d904a3549b12bbcd7a7a93b2f87309b66a457e3887bbb"
    ),
    ("DRM1", "1 shard"): (
        "2f5061e6c4f1c7bcb51b693788aa3be8e456f3e936ae6efa703a98090e5d16a8"
    ),
    ("DRM1", "load-bal 2 shards"): (
        "1b68238ad2a519bf48783fa0f885f657c4dfc5836e22d14f209bb6adcbbe3359"
    ),
    ("DRM1", "load-bal 4 shards"): (
        "9d5375ebee1e9a972efbbe96ae59c379fb926150dad98d1ad823dd05e1edd573"
    ),
    ("DRM1", "load-bal 8 shards"): (
        "722c9e5a10f18fa8b7f47a44d3be8239f0ccc5dcbfc8cc4b4655e5ee7c4ab1cd"
    ),
    ("DRM1", "cap-bal 2 shards"): (
        "7aa1a80aada269ce0a48b1eddeb79329d1126f704c06d332c2efd9713087a43b"
    ),
    ("DRM1", "cap-bal 4 shards"): (
        "bbb16c3095aacf448052fc86f84eb6113796fab2941dc5447292c0f72ee427a5"
    ),
    ("DRM1", "cap-bal 8 shards"): (
        "d1b5e4db4ac49dd27bd0b72f08c8e41f5f8f523bc31dc4e80aade74ae461459b"
    ),
    ("DRM1", "NSBP 2 shards"): (
        "9688139c879a3853ed86cb2d39a443a88669a3317382573a51523a00466defdb"
    ),
    ("DRM1", "NSBP 4 shards"): (
        "e7960051e900ebceb258eec4803b254a8eeedd75071b49dc70f4eef066ec3121"
    ),
    ("DRM1", "NSBP 8 shards"): (
        "9265dce1401dbd03dd5bba3a34f2445fcae49d1ce972a5168ceddfee7f65c60b"
    ),
    ("DRM2", "singular"): (
        "df78db8f05817da3ea0180bdb9ae2ef5132ce823955dfe22225f82a46549bf70"
    ),
    ("DRM2", "1 shard"): (
        "cfc87cce8d6a536b7183f9bfe957a53c3452fc51c9f516824998246218ea507c"
    ),
    ("DRM2", "load-bal 2 shards"): (
        "3706a5e6b2d3816fd948d2c74194619c9e3a7f792126a4b7a8349f5d289de689"
    ),
    ("DRM2", "load-bal 4 shards"): (
        "9d3a68189b2dcb6197ae24465306c7467bbcb9a262dcb3f2a5b29d665d19cb3b"
    ),
    ("DRM2", "load-bal 8 shards"): (
        "debf7f78e0ba57c48466dc167d8a058f62608d209280645eb6a8e2dfab05896a"
    ),
    ("DRM2", "cap-bal 2 shards"): (
        "4566d12c09a0da7c5d0c3a857d04dd0460ea7bdd3eb1c39c538b0c8e98006997"
    ),
    ("DRM2", "cap-bal 4 shards"): (
        "15cfd802a82a85d405cd266192de5def8d4bd6413c63fabcfc123903583d02b1"
    ),
    ("DRM2", "cap-bal 8 shards"): (
        "25ea30930a0fac6e9a123389fdec8a4c0da0c5f1370914a2bca3519ee46d6d67"
    ),
    ("DRM2", "NSBP 2 shards"): (
        "243e37e74ba11b7735b5607492d4a2ee962e6050eec12ff14b112c2b57923d06"
    ),
    ("DRM2", "NSBP 4 shards"): (
        "370a02cca5061071c7c40148f3cef0f0a9662bee1f28f95a49ac478742f37e5a"
    ),
    ("DRM2", "NSBP 8 shards"): (
        "f01ada15344763d006774b1a4f6fc442fbf9e87a65a97b8bf15bcd086b311677"
    ),
    ("DRM3", "singular"): (
        "e2a26996bba4db68d9abee408a945cc737daa634f133ac453e1e368388580ff2"
    ),
    ("DRM3", "1 shard"): (
        "3bda9d121a574d2238556fcb3d2e417d2cdb7eb33ad232d510b3aeec132e29ed"
    ),
    ("DRM3", "NSBP 4 shards"): (
        "210ae924ee2b947ae5004b7cfbf5f01cc9acbdd8accc9fec24f2889c6a97160c"
    ),
    ("DRM3", "NSBP 8 shards"): (
        "197ccb3eae4a3936b358c7fc0877d09c8a69e62fe9a80824066c2e5757d71944"
    ),
}


@functools.cache
def sweep_digests(model_name: str) -> dict[str, str]:
    """sha256 of each configuration's columns, by configuration label."""
    results = run_suite(build(model_name), SETTINGS, max_workers=1)
    digests = {}
    for label, result in results.items():
        assert len(result) == SETTINGS.num_requests
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(result.e2e).tobytes())
        digest.update(np.ascontiguousarray(result.cpu).tobytes())
        shard_cpu = result.shard_columns("cpu")
        for shard in sorted(shard_cpu):
            digest.update(str(shard).encode())
            digest.update(np.ascontiguousarray(shard_cpu[shard]).tobytes())
        digests[label] = digest.hexdigest()
    return digests


@pytest.mark.parametrize("model_name, label", list(DIGESTS))
def test_open_loop_columns_are_pinned(model_name, label):
    assert sweep_digests(model_name)[label] == DIGESTS[model_name, label]
