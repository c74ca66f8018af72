"""Table 7: the context-profile feature list.

Regenerates the full 115-feature schema (raw header features, amplification
features, gate weights) and verifies the structural counts of Table 7 plus the
fact that extracted profiles really follow the schema.
"""

from benchmarks.conftest import write_result
from repro.evaluation.reporting import render_table
from repro.evaluation.runner import CLAP_NAME
from repro.features.schema import (
    CONTEXT_PROFILE_SIZE,
    NUM_AMPLIFICATION_FEATURES,
    NUM_GATE_FEATURES,
    NUM_RAW_FEATURES,
    all_feature_specs,
)


def test_table7_feature_set(experiment, benchmark):
    specs = benchmark(all_feature_specs)

    rows = [
        [str(spec.index), spec.feature_type.value, spec.group.value, spec.name]
        for spec in specs
    ]
    text = render_table(["Index", "Type", "Group", "Semantic"], rows)
    write_result("table7_feature_set.txt", text)

    assert len(specs) == CONTEXT_PROFILE_SIZE == 115
    assert NUM_RAW_FEATURES == 32  # features 1-32: IP/TCP header fields
    assert NUM_AMPLIFICATION_FEATURES == 19  # features 33-51
    assert NUM_GATE_FEATURES == 64  # features 52-115: update + reset gates

    # The trained pipeline's profiles follow the same layout.
    clap = experiment.runner.detectors[CLAP_NAME]
    connection = experiment.runner.test_connections[0]
    profiles = clap.builder.batch_connection_profiles([connection])[0]
    assert profiles.profiles.shape[1] == CONTEXT_PROFILE_SIZE
    assert profiles.update_gates.shape[1] == 32
    assert profiles.reset_gates.shape[1] == 32
