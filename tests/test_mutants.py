import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_changes_one_line_that_is_in_place():
    # a refactor that moves a mutated line fails here, instead of the mutant
    # silently changing nothing
    assert len({name for name, *_ in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for name, file, old, new, _ in mutants.MUTANTS:
        assert "\n" not in old + new and old != new, name
        assert (ROOT / file).read_text().count(old) == 1, name

