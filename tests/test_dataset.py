import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescnn import dataset as ds
from rescnn.errors import DataError


def line(**overrides):
    obj = {
        "tokens": ["a", "b", "c"],
        "e1_idx": 0,
        "e2_idx": 2,
        "e1_id": "m.1",
        "e2_id": "m.2",
        "relation": "founder",
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestLoadCorpus:
    def test_parses_well_formed_lines(self):
        got = ds.load_corpus(io.StringIO(line() + "\n" + line(relation="NA") + "\n"))
        assert len(got) == 2
        assert got[0].tokens == ("a", "b", "c")
        assert got[1].relation == "NA"

    def test_blank_lines_skipped(self):
        got = ds.load_corpus(io.StringIO("\n" + line() + "\n\n"))
        assert len(got) == 1

    def test_invalid_json_names_the_line(self):
        with pytest.raises(DataError, match="line 2"):
            ds.load_corpus(io.StringIO(line() + "\n{oops\n"))

    def test_missing_fields_listed(self):
        with pytest.raises(DataError, match="e2_idx"):
            ds.load_corpus(io.StringIO('{"tokens": ["a"], "e1_idx": 0}\n'))

    def test_non_object_line_rejected(self):
        with pytest.raises(DataError, match="object"):
            ds.load_corpus(io.StringIO("[1, 2]\n"))

    def test_entity_index_bounds_checked(self):
        with pytest.raises(DataError, match="e2_idx=5"):
            ds.load_corpus(io.StringIO(line(e2_idx=5) + "\n"))

    def test_boolean_index_rejected(self):
        with pytest.raises(DataError):
            ds.load_corpus(io.StringIO(line(e1_idx=True) + "\n"))

    def test_empty_token_rejected(self):
        with pytest.raises(DataError):
            ds.load_corpus(io.StringIO(line(tokens=["a", ""]) + "\n"))

    def test_whitespace_in_token_rejected(self):
        with pytest.raises(DataError, match="whitespace"):
            ds.load_corpus(io.StringIO(line(tokens=["a b", "c", "d"]) + "\n"))

    def test_empty_relation_rejected(self):
        with pytest.raises(DataError):
            ds.load_corpus(io.StringIO(line(relation="") + "\n"))

    def test_unknown_labels_reported_together(self):
        schema = ds.RelationSchema(("NA", "founder"))
        text = line(relation="x1") + "\n" + line(relation="founder") + "\n" + line(relation="x2") + "\n"
        with pytest.raises(DataError, match=r"\['x1', 'x2'\]"):
            ds.load_corpus(io.StringIO(text), schema=schema)

    def test_empty_source_gives_empty_list(self):
        assert ds.load_corpus(io.StringIO("")) == []

    @pytest.mark.parametrize("bad", ["a\tb", "a\u00a0b", "\u2003", "x\x1f"])
    def test_whitespace_message_names_the_first_offending_token(self, bad):
        text = line() + "\n" + line(tokens=["ok", bad, "c\u2003d"]) + "\n"
        with pytest.raises(DataError) as info:
            ds.load_corpus(io.StringIO(text))
        assert str(info.value) == f"line 2: token {bad!r} contains whitespace"

    @pytest.mark.parametrize("tokens", [["a", 3], ["a", ""], [None], [], "abc", [["a"]]])
    def test_malformed_token_list_names_the_line(self, tokens):
        text = line() + "\n\n" + line(tokens=tokens, e1_idx=0, e2_idx=0) + "\n"
        with pytest.raises(DataError) as info:
            ds.load_corpus(io.StringIO(text))
        assert str(info.value) == "line 3: tokens must be a non-empty list of non-empty strings"


relation_st = st.sampled_from(["NA", "r1", "r2", "r3"])
token_st = st.text(alphabet="abcxyz_0123", min_size=1, max_size=8)


@st.composite
def instances_st(draw):
    tokens = tuple(draw(st.lists(token_st, min_size=2, max_size=6)))
    e1 = draw(st.integers(0, len(tokens) - 1))
    e2 = draw(st.integers(0, len(tokens) - 1))
    return ds.CorpusInstance(
        tokens=tokens,
        e1_idx=e1,
        e2_idx=e2,
        e1_id=draw(token_st),
        e2_id=draw(token_st),
        relation=draw(relation_st),
    )


class TestWriteCorpus:
    @given(st.lists(instances_st(), max_size=10))
    def test_round_trip(self, tmp_path_factory, instances):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        ds.write_corpus(path, instances)
        assert ds.load_corpus(path) == instances

    def test_fixed_key_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ds.write_corpus(path, ds.load_corpus(io.StringIO(line() + "\n")))
        text = path.read_text().strip()
        assert text.index('"tokens"') < text.index('"e1_idx"') < text.index('"relation"')


class TestSynthCorpusDigests:
    # sha256 of write_corpus(train + test); pins the generator's draws, their
    # order and the token strings, so a faster generator must give these bytes
    DIGESTS = {
        "ladder_seed0": "3363f941da9a2e757b85badfd8b2fc75435236ad8e53f22d345005c839a366c5",
        "ladder_seed1": "295a2524c73d519cd6fccaf1b230b92cbfd1068ddb8daa57a1700e09f34f16fb",
        "ladder_seed2": "b50d6f2f16879bb8b060e8492f0d5ecab38f6b63852bd975c090199c1c641d40",
        "vocab1500": "5812ad5c9813671174219984cb9398ec1be0c5e7f2ca066e776378bc712df957",
        "two_entities": "4928fb20c439e496dd2fd73fb833c07c79142055b920075118c2296b627fd88f",
        "len3": "2972425b8eb8c15c9e82e118bb1c97025321b8fb6f092d48b60c414bc1e2bd6b",
        "noise_na": "9c950f93778697fed59404dd874f1c4d1e59ba35d4fc59a5cbffade6430e27c4",
    }
    LADDER = dict(noise_rate=0.3, num_relations=7, vocab_size=300, triggers_per_relation=2, min_len=22,
                  max_len=30, na_fraction=0.25, num_train=5000, num_test=1000)
    CONFIGS = {
        "ladder_seed0": ds.SynthConfig(**LADDER, seed=0),
        "ladder_seed1": ds.SynthConfig(**LADDER, seed=1),
        "ladder_seed2": ds.SynthConfig(**LADDER, seed=2),
        "vocab1500": ds.SynthConfig(vocab_size=1500, num_train=300, num_test=100, seed=5),
        "two_entities": ds.SynthConfig(num_entities=2, num_train=300, num_test=100, seed=6),
        "len3": ds.SynthConfig(min_len=3, max_len=3, num_train=300, num_test=100, seed=7),
        "noise_na": ds.SynthConfig(noise_rate=0.4, na_fraction=0.3, num_train=300, num_test=100, seed=8),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_written_corpus_bytes_are_pinned(self, tmp_path, name):
        train, test, _ = ds.synth_generate(self.CONFIGS[name])
        path = tmp_path / "corpus.jsonl"
        ds.write_corpus(path, train + test)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[name]

    def test_write_corpus_matches_json_dumps(self, tmp_path):
        train, _, _ = ds.synth_generate(self.CONFIGS["noise_na"])
        path = tmp_path / "corpus.jsonl"
        ds.write_corpus(path, train)
        want = "".join(json.dumps({"tokens": list(i.tokens), "e1_idx": i.e1_idx, "e2_idx": i.e2_idx,
                                   "e1_id": i.e1_id, "e2_id": i.e2_id, "relation": i.relation},
                                  separators=(",", ":")) + "\n" for i in train)
        assert path.read_text(encoding="utf-8") == want


class TestGoldFacts:
    def test_excludes_na_and_deduplicates(self):
        insts = ds.load_corpus(io.StringIO(line() + "\n" + line() + "\n" + line(relation="NA") + "\n"))
        assert ds.gold_facts(insts) == {("m.1", "m.2", "founder")}


class TestRelationSchema:
    def test_na_pinned_to_id_zero(self):
        schema = ds.RelationSchema.from_labels(["z", "a"])
        assert schema.labels == ("NA", "a", "z")
        assert schema.id_of("NA") == 0
        assert schema.label_of(2) == "z"

    def test_from_labels_drops_na_duplicates(self):
        schema = ds.RelationSchema.from_labels(["a", "NA", "a"])
        assert schema.labels == ("NA", "a")

    def test_unknown_label_raises(self):
        schema = ds.RelationSchema(("NA", "a"))
        with pytest.raises(DataError, match="unknown"):
            schema.id_of("b")

    def test_na_must_come_first(self):
        with pytest.raises(DataError):
            ds.RelationSchema(("a", "NA"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataError):
            ds.RelationSchema(("NA", "a", "a"))


class TestSynthConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ds.SynthConfig(noise_rate=1.0)
        with pytest.raises(ValueError):
            ds.SynthConfig(na_fraction=-0.1)

    def test_flips_need_two_relations(self):
        with pytest.raises(ValueError):
            ds.SynthConfig(num_relations=1, noise_rate=0.2)

    def test_sentences_must_fit_entities_and_trigger(self):
        with pytest.raises(ValueError):
            ds.SynthConfig(min_len=2)
        with pytest.raises(ValueError):
            ds.SynthConfig(min_len=8, max_len=7)


class TestSynthGenerate:
    CFG = ds.SynthConfig(num_relations=4, num_train=300, num_test=120,
                         noise_rate=0.25, na_fraction=0.2, seed=11)

    def test_deterministic_under_seed(self):
        a = ds.synth_generate(self.CFG)
        b = ds.synth_generate(self.CFG)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]

    def test_counts_match_config(self):
        train, test, _ = ds.synth_generate(self.CFG)
        assert len(train) == 300 and len(test) == 120

    def test_gold_is_the_clean_test_fact_set(self):
        _, test, gold = ds.synth_generate(self.CFG)
        assert gold == ds.gold_facts(test)

    def test_entity_tokens_sit_at_the_marked_indices(self):
        train, _, _ = ds.synth_generate(self.CFG)
        for inst in train[:50]:
            assert inst.tokens[inst.e1_idx] == inst.e1_id
            assert inst.tokens[inst.e2_idx] == inst.e2_id
            assert inst.e1_id != inst.e2_id

    def test_lengths_respect_bounds(self):
        train, test, _ = ds.synth_generate(self.CFG)
        for inst in train + test:
            assert self.CFG.min_len <= len(inst.tokens) <= self.CFG.max_len

    def test_test_labels_always_match_their_trigger(self):
        _, test, _ = ds.synth_generate(self.CFG)
        for inst in test:
            triggers = [r for r in map(ds.trigger_relation, inst.tokens) if r]
            if inst.relation == ds.NA_LABEL:
                assert triggers == []
            else:
                assert triggers == [inst.relation]

    def test_train_flip_rate_near_q(self):
        cfg = ds.SynthConfig(num_relations=5, num_train=4000, num_test=10,
                             noise_rate=0.4, seed=2)
        train, _, _ = ds.synth_generate(cfg)
        flipped = total = 0
        for inst in train:
            true = next(r for r in map(ds.trigger_relation, inst.tokens) if r)
            total += 1
            flipped += true != inst.relation
        assert abs(flipped / total - 0.4) < 0.03

    def test_flips_never_produce_na(self):
        train, _, _ = ds.synth_generate(self.CFG)
        for inst in train:
            has_trigger = any(map(ds.trigger_relation, inst.tokens))
            if has_trigger:
                assert inst.relation != ds.NA_LABEL

    def test_na_fraction_controls_unrelated_sentences(self):
        cfg = ds.SynthConfig(num_train=3000, num_test=10, na_fraction=0.3, seed=5)
        train, _, _ = ds.synth_generate(cfg)
        frac = sum(i.relation == ds.NA_LABEL for i in train) / len(train)
        assert abs(frac - 0.3) < 0.03

    def test_zero_noise_keeps_all_train_labels_true(self):
        cfg = ds.SynthConfig(num_train=500, num_test=10, noise_rate=0.0, seed=9)
        train, _, _ = ds.synth_generate(cfg)
        for inst in train:
            true = next(r for r in map(ds.trigger_relation, inst.tokens) if r)
            assert inst.relation == true

    def test_schema_covers_generated_labels(self):
        train, test, _ = ds.synth_generate(self.CFG)
        schema = ds.synth_schema(self.CFG)
        for inst in train + test:
            schema.id_of(inst.relation)

    @given(st.integers(0, 2**32 - 1))
    def test_any_seed_produces_a_loadable_corpus(self, seed):
        cfg = ds.SynthConfig(num_train=5, num_test=3, noise_rate=0.3,
                             na_fraction=0.2, seed=seed)
        train, test, gold = ds.synth_generate(cfg)
        assert len(train) == 5 and len(test) == 3
        for fact in gold:
            assert fact[2] != ds.NA_LABEL


class TestFillerDraw:
    # synthesis draws a sentence's filler tokens in one call; the corpus
    # stays what one draw per token gave only while numpy keeps this equality
    @pytest.mark.parametrize("seed", [0, 11, 2**32 - 1])
    @pytest.mark.parametrize("vocab_size", [1, 7, 300, 70_000, 2**31 + 5])
    def test_one_draw_equals_one_draw_per_token(self, seed, vocab_size):
        batched = np.random.default_rng(seed)
        per_token = np.random.default_rng(seed)
        for length in (1, 3, 22, 30):
            got = batched.integers(vocab_size, size=length)
            want = [per_token.integers(vocab_size) for _ in range(length)]
            assert got.tolist() == want
        assert batched.bit_generator.state == per_token.bit_generator.state


class TestTriggerRelation:
    def test_parses_trigger_tokens(self):
        assert ds.trigger_relation("trig_03_1") == "rel_03"

    def test_other_tokens_give_none(self):
        assert ds.trigger_relation("w007") is None
        assert ds.trigger_relation("ent_001") is None
        assert ds.trigger_relation("trig_weird") is None
