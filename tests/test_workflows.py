"""The CI workflow files load as YAML with no repeated mapping key: GitHub
Actions rejects a file with one, and a last-key-wins loader drops a step's
first ``run`` block without a word."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted((Path(__file__).parent.parent / ".github" / "workflows").glob("*.yml"))


class _StrictLoader(yaml.SafeLoader):
    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(key, deep=deep) for key, _ in node.value]
        repeated = {key for key in keys if keys.count(key) > 1}
        if repeated:
            raise AssertionError(f"line {node.start_mark.line + 1}: repeated keys {repeated}")
        return super().construct_mapping(node, deep)


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_no_repeated_keys_and_one_action_per_step(path):
    jobs = yaml.load(path.read_text(), _StrictLoader)["jobs"]
    for name, job in jobs.items():
        for step in job["steps"]:
            assert ("run" in step) != ("uses" in step), (name, step)
