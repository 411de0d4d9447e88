import numpy as np
import pytest

from raretag.embeddings import (
    EmbeddingParseError,
    EmbeddingTable,
    load_text_format,
    random_table,
    save_text_format,
)


def write(tmp_path, content, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoad:
    def test_glove_style(self, tmp_path):
        table = load_text_format(write(tmp_path, "cat 0.1 0.2\ndog 0.3 0.4\n"))
        assert table.dim == 2
        assert len(table.vocab) == 2
        assert np.allclose(table.lookup("cat"), [0.1, 0.2])

    def test_word2vec_header_skipped(self, tmp_path):
        plain = load_text_format(write(tmp_path, "cat 0.1 0.2\ndog 0.3 0.4\n", "a"))
        headed = load_text_format(
            write(tmp_path, "2 2\ncat 0.1 0.2\ndog 0.3 0.4\n", "b")
        )
        assert headed.dim == plain.dim
        assert headed.vocab == plain.vocab
        assert np.array_equal(headed.matrix, plain.matrix)

    def test_inconsistent_dim_names_line(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="line 2"):
            load_text_format(write(tmp_path, "cat 0.1 0.2\ndog 0.3 0.4 0.5\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="empty"):
            load_text_format(write(tmp_path, ""))

    def test_duplicates_keep_first(self, tmp_path):
        table = load_text_format(
            write(tmp_path, "cat 0.1 0.2\ncat 0.9 0.9\ndog 0.3 0.4\n")
        )
        assert table.duplicate_count == 1
        assert np.allclose(table.lookup("cat"), [0.1, 0.2])

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="line 1"):
            load_text_format(write(tmp_path, "cat 0.1 oops\n"))


class TestLookup:
    def table(self, policy):
        return EmbeddingTable(
            2, {"cat": 0, "dog": 1}, np.array([[0.1, 0.2], [0.3, 0.4]]),
            policy, seed=3,
        )

    def test_known_word(self):
        assert np.allclose(self.table("zeros").lookup("dog"), [0.3, 0.4])

    def test_lowercase_fallback(self):
        assert np.allclose(self.table("zeros").lookup("CAT"), [0.1, 0.2])

    def test_zeros_policy(self):
        assert np.array_equal(self.table("zeros").lookup("bird"), [0.0, 0.0])

    def test_random_seeded_is_cached_and_repeatable(self):
        table = self.table("random_seeded")
        first = table.lookup("bird").copy()
        second = table.lookup("bird")
        assert np.array_equal(first, second)
        assert np.all(np.abs(first) <= 0.25)
        assert np.any(first != 0)
        # a fresh table with the same seed draws the same vector
        other = self.table("random_seeded")
        assert np.array_equal(other.lookup("bird"), first)

    def test_different_words_get_different_vectors(self):
        table = self.table("random_seeded")
        assert not np.array_equal(table.lookup("bird"), table.lookup("fish"))

    def test_mean_vector_policy(self):
        expected = np.array([0.2, 0.3])
        assert np.allclose(self.table("mean_vector").lookup("bird"), expected)

    def test_row_is_exact_then_lowercase_then_minus_one(self):
        table = self.table("zeros")
        assert [table.row(w) for w in ("dog", "CAT", "bird")] == [1, 0, -1]
        assert table.oov_rate() == pytest.approx(1 / 3)

    def test_oov_rate(self):
        table = self.table("zeros")
        table.lookup("cat")
        table.lookup("bird")
        table.lookup("fish")
        assert table.oov_rate() == pytest.approx(2 / 3)
        table.reset_oov_counters()
        assert table.oov_rate() == 0.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            self.table("nonsense")


class TestRandomTable:
    def test_deterministic(self):
        a = random_table(["x", "y", "z"], 5, seed=9)
        b = random_table(["x", "y", "z"], 5, seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            random_table(["x"], 0, seed=1)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            random_table([], 4, seed=1)

    def test_shape_and_range(self):
        table = random_table([f"w{i}" for i in range(10)], 50, seed=2)
        assert table.matrix.shape == (10, 50)
        assert np.all(np.abs(table.matrix) <= 0.25)
        assert table.origin == "random"


class TestSaveLoad:
    def test_round_trip_at_six_digits(self, tmp_path):
        source = write(tmp_path, "cat 0.123456 -0.25\ndog 1e-05 42\n")
        table = load_text_format(source)
        saved = tmp_path / "resaved.txt"
        save_text_format(table, saved)
        again = load_text_format(saved)
        assert again.vocab == table.vocab
        assert np.array_equal(again.matrix, table.matrix)

    def test_round_trip_with_header(self, tmp_path):
        table = load_text_format(write(tmp_path, "cat 0.5 0.25\n"))
        saved = tmp_path / "resaved.txt"
        save_text_format(table, saved, header=True)
        assert saved.read_text().splitlines()[0] == "1 2"
        again = load_text_format(saved)
        assert np.array_equal(again.matrix, table.matrix)
