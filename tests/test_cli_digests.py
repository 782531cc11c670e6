"""Pin every CLI verb's stdout at toy sizes.

Each case runs one ``repro`` verb in-process and compares the sha256 of
what it printed against a recorded digest.  A refactor of the argument
parsing or config construction must leave every digest unchanged; a
change that is meant to alter output re-records the digest and says
why.  Run a single case with ``-k <name>`` and print its output to see
what changed.
"""

import hashlib

import pytest

from repro.cli import main

TOY = ["--pooling-requests", "20"]

CASES = {
    "models": (
        ["models"],
        "51db9624ff63cdafa00fa8bbed88ebd024a67b735bea4f44f07b1c9b6447cc6d",
    ),
    "shard": (
        ["shard", "--model", "DRM1", "--shards", "4", *TOY],
        "901919c65af2066e20f56422e8c73525327d7643cd421048bb27e8f9dd1ff39f",
    ),
    "simulate": (
        ["simulate", "--model", "DRM1", "--shards", "4", "--requests", "10", *TOY],
        "1d13a85286ef8cfbaefc0aa64a5309980ce0680d6410cdf1fe98ca9cfa4e35c5",
    ),
    "suite": (
        ["suite", "--model", "DRM3", "--requests", "5", "--workers", "1"],
        "e0b99b10b7e99330f66540c4b91327797a1cce5fa5359c97674f36fea899d5e9",
    ),
    "workload": (
        [
            "workload", "--models", "DRM1", "DRM2", "--requests", "10", *TOY,
            "--arrivals", "mmpp", "--cache-summary", "--shards", "2",
        ],
        "42c07ea6d639d5e4ba8dfd30a567709cdf9403b823443818976bcc44a18124bf",
    ),
    "plan": (
        [
            "plan", "--models", "DRM1", "DRM2", "--requests", "10", *TOY,
            "--assess-availability", "--assess-replicas", "1", "2",
            "--retry-timeout-ms", "5", "--retry-max-attempts", "3",
            "--hedge-ms", "1", "--retry-backoff-ms", "0.5",
            "--retry-jitter", "0.1", "--deadline-ms", "20", "--workers", "1",
        ],
        "9a5faad2ef04fa0ed83ad287960ffa80a98caf744b13038ce5590996ea8271c0",
    ),
    "plan-domains": (
        [
            "plan", "--models", "DRM1", "--requests", "10", *TOY,
            "--target-ms", "5", "--utilization", "0.5",
            "--assess-availability", "--assess-replicas", "2",
            "--domains", "2", "--placement", "packed", "--workers", "1",
        ],
        "eed586e6f759c91773baf7f18e4b111f0e27540571a859c396c985a29b6ad259",
    ),
    "chaos-heal": (
        [
            "chaos", "--requests", "20", *TOY, "--qps", "100",
            "--replicas", "1", "2", "--heal", "--slo-ms", "6",
            "--restart-after", "0.3", "--straggler", "1", "0.05", "0.2", "3",
            "--spike", "0.1", "0.1", "2", "--workers", "1",
        ],
        "c4ef9648953d839e3fac5053cb323dcc5064135b11e0f12cab773fa0f3452bdf",
    ),
    "chaos-correlated": (
        [
            "chaos", "--requests", "20", *TOY, "--qps", "100",
            "--replicas", "1", "2", "--no-crash", "--correlated-domain", "0",
            "--correlated-at", "0.05", "--domains", "2",
            "--retry-timeout-ms", "5", "--retry-max-attempts", "3",
            "--hedge-quantile", "95", "--workers", "1",
        ],
        "d31c5e8b7cb8c78a813baabc2313ff8acf70c900e7cce145d9b0debda5c62a96",
    ),
    "trace": (
        ["trace", "--model", "DRM1", "--shards", "4", *TOY],
        "353b40cb5580f478a5720bb192fb0f405b183c30d9cfffe202551f91f473db66",
    ),
    # A bare cluster replaying a row-partitioned table (NSBP splits
    # DRM3's dominant table across the shards).
    "trace-partitioned": (
        ["trace", "--model", "DRM3", "--strategy", "NSBP", "--shards", "4", *TOY],
        "5aec20f11b3923d82fef1b2ca906b9822cf348b71220e2eda6b354391730e8b9",
    ),
    "trace-singular": (
        ["trace", "--model", "DRM1", "--strategy", "singular", *TOY],
        "43acfc79feee805b1d74affe75c352737126c4fe8b181f4fcbdd297ed90a7321",
    ),
    # Chaos replays fall back to the batched DES; here on a partitioned plan.
    "chaos-partitioned": (
        [
            "chaos", "--model", "DRM3", "--strategy", "NSBP", "--shards", "4",
            "--requests", "20", *TOY, "--qps", "100", "--replicas", "1", "2",
            "--workers", "1",
        ],
        "76d2f2c494a8d2e0f9d5efd20aa2d4fd95d638e52f0028bc0f00e5c6c160bd59",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_verb_stdout_is_pinned(name, capsys):
    argv, digest = CASES[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
