import importlib.util
import tempfile
from pathlib import Path

from bohm_squeeze import closedform as cf
from bohm_squeeze import spectral, verify

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
_spec = importlib.util.spec_from_file_location("outputs", TOOL)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

VERIFY = "verify/verify_example1/auto/closed_form"
CASES = {name: case for name, case in outputs.cases().items() if name in (VERIFY, "entropy/entropy")}


def test_manifest_does_not_depend_on_its_temporary_directory(tmp_path, monkeypatch):
    # each case runs in its own working directory and writes relative paths,
    # and stdout and stderr read the temporary directory as <tmp>
    manifests = []
    for parent in ("a", "b"):
        (tmp_path / parent).mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / parent))
        manifests.append(outputs.manifest(CASES))
    assert manifests[0] == manifests[1]
    lines, raised = manifests[0]
    assert not raised and f"{VERIFY} exit 0" in lines and "entropy/entropy exit 0" in lines
    assert not any(str(tmp_path) in line for line in lines)


def test_a_patched_form_moves_exactly_its_artifacts_line(monkeypatch):
    # the phase's c_u x (1 + 1e-4) passes every check, so the exit code and
    # both streams stay; only the report's bytes move
    clean_lines, _ = outputs.manifest(CASES)
    clean = verify.phase_coeffs

    def phase_coeffs(now):
        q = clean(now)
        return cf.QuadForm(q.c_u * (1 + 1e-4), q.c_v, q.const)

    monkeypatch.setattr(verify, "phase_coeffs", phase_coeffs)
    patched_lines, raised = outputs.manifest(CASES)
    assert not raised
    (before,), (after,) = set(clean_lines) - set(patched_lines), set(patched_lines) - set(clean_lines)
    prefix = f"{VERIFY} out/verify1/residuals.json "
    assert before.startswith(prefix) and after.startswith(prefix) and before != after


def test_a_case_that_raises_makes_the_tool_exit_nonzero(monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise RuntimeError("a defect past main's handlers")

    monkeypatch.setattr(spectral, "schmidt_spectrum", fails)
    monkeypatch.setattr(outputs, "cases", lambda: CASES)
    assert outputs.main() == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("# numpy ") and "entropy/entropy exception RuntimeError" in lines
    assert f"{VERIFY} exit 0" in lines
    assert "a defect past main's handlers" in captured.err
