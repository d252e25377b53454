import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def fresh_stage1():
    """Start every test without a stored stage 1 (training.train keeps the last
    finetune's stage 1 per process, and pytest runs every test in one)."""
    from imnav import training
    training.clear_stage1()
