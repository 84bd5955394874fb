from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs():
    """The README's "Library entry points" code block imports every name it
    documents, so deleting one of them fails here."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, f"{README.name}: Library entry points", "exec"), namespace)
    assert {"train_pipeline", "predict_ct", "conditional_expectation"} <= namespace.keys()
