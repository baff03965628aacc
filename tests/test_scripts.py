"""Each script under scripts/ runs its main once on a small input and exits 0."""


def test_smoke_conditions(load_script):
    assert load_script("smoke_conditions").main() == 0


def test_oracle_sweep(load_script):
    assert load_script("oracle_sweep").main(["--trees", "5", "--graphs", "3"]) == 0


def test_render_examples(load_script, tmp_path):
    assert load_script("render_examples").main(["--out", str(tmp_path)]) == 0
    assert list(tmp_path.glob("*.svg"))


def test_run_corpus(load_script):
    assert load_script("run_corpus").main(["--limit", "3"]) == 0
