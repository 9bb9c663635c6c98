import numpy as np
import pytest

from prosemph import corpus
from prosemph.tagset import default_tagset

from synth import ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def tagset():
    return default_tagset()


@pytest.fixture
def tiny_utt():
    return corpus.Utterance(
        id="u1",
        chars=("你", "好", "吗"),
        word_spans=((0, 2), (2, 3)),
        phones_per_char=(2, 2, 1),
        char_times=((0.0, 0.2), (0.2, 0.4), (0.4, 0.6)),
    )


@pytest.fixture
def tiny_ann(tagset, tiny_utt):
    ann = corpus.DepAnnotation(
        utterance_id="u1",
        pos_tags=(tagset.pos["n"], tagset.pos["v"]),
        heads=(1, None),
        relations=(tagset.rel["SBV"], tagset.root_id),
    )
    ann.validate(tiny_utt, tagset)
    return ann


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
