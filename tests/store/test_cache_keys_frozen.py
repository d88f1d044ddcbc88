"""Run-store cache keys are frozen across the topology redesign.

Every key below was captured *before* the TopologySpec redesign.  The
redesign threads a ``topology`` argument through every point-spec
builder, and its compatibility contract is that historical call shapes
(default fabrics, legacy ``topology="fat-tree"`` strings) keep their
exact historical keys — otherwise every user's cache would silently
cold-start.  Only genuinely new fabrics (an explicit non-default
TopologySpec) may mint new keys.

The keys are also pinned in a fresh interpreter that never imports
numpy: ``stable_digest`` only recognises numpy scalars once numpy is
loaded, and that lazy path must not change a single byte of any key.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

from repro.experiments.autotune import autotune_point_spec
from repro.experiments.chaos import chaos_point_spec
from repro.experiments.largescale import fct_point_spec
from repro.experiments.scale import BENCH, TINY
from repro.experiments.sharedbuf import sharedbuf_point_spec
from repro.net.sharedbuf import SharedBufferSpec
from repro.net.topology import TopologySpec

FROZEN_KEYS = {
    "fct-default":
        "c94a88b02387a66a8a3d3adb7b68dfe39a7933449a78f300d2ac4228f905eb2c",
    "fct-wfq-audit":
        "89604da76643c40605707a9ef9e00a4f45a292ea878094880cd175e06e0c038e",
    "fct-fat-tree":
        "c4744f32a89f3d17dffadf21148d2d60e3a4f3b72fc0c710d496044e769fcf77",
    "sharedbuf-dt":
        "8219d033f0bd7d208a058b310de0274a8c2f044684c477f9957b2c7987fbac41",
    "chaos-iid":
        "3815883cd89e77ebbdad705b388fd070d2387aebbf3207c22c7d42fa38708a1a",
    "autotune":
        "50b93abfd5bd520033dbd3bf18243b08a62b98fbd6815956f959115083ea01dc",
}

#: The historical call shape behind each frozen key.
PINNED_SPECS = {
    "fct-default": lambda: fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3),
    "fct-wfq-audit": lambda: fct_point_spec("pmsb", "wfq", 0.3, BENCH, 1,
                                            audit=True),
    "fct-fat-tree": lambda: fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                                           topology="fat-tree", fat_tree_k=4),
    "sharedbuf-dt": lambda: sharedbuf_point_spec(
        "pmsb", "dwrr", SharedBufferSpec(policy="dt", capacity=64, alpha=1.0),
        TINY, 7),
    "chaos-iid": lambda: chaos_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                                          model="iid-loss", loss_rate=0.001),
    "autotune": lambda: autotune_point_spec(12.0, 24.0, "dwrr", 0.3, 0.7,
                                            TINY, 1, chaos=False),
}


class TestHistoricalKeysUnchanged:
    def test_fct_default_leaf_spine(self):
        spec = PINNED_SPECS["fct-default"]()
        assert spec.key() == FROZEN_KEYS["fct-default"]

    def test_fct_wfq_audit(self):
        spec = PINNED_SPECS["fct-wfq-audit"]()
        assert spec.key() == FROZEN_KEYS["fct-wfq-audit"]

    def test_fct_legacy_fat_tree_string(self):
        spec = PINNED_SPECS["fct-fat-tree"]()
        assert spec.key() == FROZEN_KEYS["fct-fat-tree"]

    def test_fct_spec_object_matches_legacy_string(self):
        """A TopologySpec spelling of the legacy fat-tree renders the
        same params and therefore the same key."""
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                              topology=TopologySpec.parse("fat-tree:k=4"))
        assert spec.key() == FROZEN_KEYS["fct-fat-tree"]

    def test_fct_default_spec_object_matches_none(self):
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3,
                              topology=TopologySpec())
        assert spec.key() == FROZEN_KEYS["fct-default"]

    def test_sharedbuf(self):
        spec = PINNED_SPECS["sharedbuf-dt"]()
        assert spec.key() == FROZEN_KEYS["sharedbuf-dt"]

    def test_chaos(self):
        spec = PINNED_SPECS["chaos-iid"]()
        assert spec.key() == FROZEN_KEYS["chaos-iid"]

    def test_autotune(self):
        spec = PINNED_SPECS["autotune"]()
        assert spec.key() == FROZEN_KEYS["autotune"]

    def test_keys_without_numpy_loaded(self):
        """Every pinned key, computed in a fresh interpreter before numpy
        is imported, matches byte for byte."""
        script = (
            "import json, sys\n"
            "from tests.store.test_cache_keys_frozen import PINNED_SPECS\n"
            "keys = {name: build().key() for name, build in PINNED_SPECS.items()}\n"
            "print(json.dumps({'numpy': 'numpy' in sys.modules, 'keys': keys}))\n"
        )
        root = pathlib.Path(__file__).resolve().parents[2]
        out = subprocess.run([sys.executable, "-c", script], cwd=root,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == {"numpy": False, "keys": FROZEN_KEYS}


class TestNewFabricsReKey:
    def test_non_default_topology_mints_a_new_fct_key(self):
        clos = TopologySpec.parse("clos:tiers=2,ports=16,oversub=2")
        spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, 3, topology=clos)
        assert spec.key() != FROZEN_KEYS["fct-default"]
        params = dict(spec.canonical()["params"])
        assert params["topology"] == "clos"

    def test_non_default_topology_re_keys_sharedbuf(self):
        policy = SharedBufferSpec(policy="dt", capacity=64, alpha=1.0)
        spec = sharedbuf_point_spec(
            "pmsb", "dwrr", policy, TINY, 7,
            topology=TopologySpec.parse("leaf-spine:leaf=2,spine=2,hosts=3"))
        assert spec.key() != FROZEN_KEYS["sharedbuf-dt"]

    def test_non_default_topology_re_keys_autotune(self):
        spec = autotune_point_spec(
            12.0, 24.0, "dwrr", 0.3, 0.7, TINY, 1, chaos=False,
            topology=TopologySpec.parse("clos:tiers=2,ports=8,oversub=1.5"))
        assert spec.key() != FROZEN_KEYS["autotune"]

    def test_default_spec_leaves_autotune_key_alone(self):
        spec = autotune_point_spec(12.0, 24.0, "dwrr", 0.3, 0.7, TINY, 1,
                                   chaos=False, topology=TopologySpec())
        assert spec.key() == FROZEN_KEYS["autotune"]
