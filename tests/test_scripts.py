"""Each script under scripts/ runs its main on a small input and exits 0."""
import re


def test_smoke_conditions(load_script):
    assert load_script("smoke_conditions").main() == 0


def test_oracle_sweep(load_script):
    assert load_script("oracle_sweep").main(["--trees", "5", "--graphs", "3"]) == 0


def test_render_examples(load_script, tmp_path):
    assert load_script("render_examples").main(["--out", str(tmp_path)]) == 0
    assert list(tmp_path.glob("*.svg"))


def test_run_corpus(load_script):
    assert load_script("run_corpus").main(["--limit", "3"]) == 0


def test_run_corpus_strict(load_script, capsys):
    """Strict height mode recovers the input order exactly when it is congruent."""
    assert load_script("run_corpus").main(["--limit", "3", "--strict"]) == 0
    tally = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(
        r"strict mode: (\d+) congruent orders, (\d+) exact recoveries, "
        r"(\d+) mismatch\(es\)",
        tally,
    )
    assert match, tally
    congruent, exact, mismatched = map(int, match.groups())
    assert mismatched == 0
    assert congruent == exact > 0
