import pytest

import corpus


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The synthetic trial corpus, built once per session."""
    path = tmp_path_factory.mktemp("corpus")
    corpus.build(path)
    return path


@pytest.fixture(scope="session")
def expected_report_text():
    return corpus.expected_report_text()


# every retired config key, several set to values the old parser rejected
RETIRED_SETTINGS = (
    ("segments", "upper_arm_mass_kg", "2.9"),
    ("segments", "upper_arm_length_m", "0"),
    ("segments", "upper_arm_com_ratio", "1.5"),
    ("segments", "forearm_mass_kg", "heavy"),
    ("segments", "forearm_length_m", "0.3"),
    ("segments", "forearm_com_ratio", "0.4"),
    ("motion", "period_s", "-2"),
    ("transmission", "lever_radius_m", "0.03"),
    ("transmission", "friction_mu", "-1"),
    ("transmission", "wrap_angle_rad", "inf"),
)


@pytest.fixture
def retired_config(tmp_path):
    """A config file setting every retired key, and the warnings it must raise."""
    path = tmp_path / "retired.ini"
    lines, section = [], None
    for sec, key, value in RETIRED_SETTINGS:
        if sec != section:
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return path, [f"{path}: [{sec}] {key} is retired and ignored"
                  for sec, key, _ in RETIRED_SETTINGS]
