"""Reference code, written out plainly, that the training kernel is checked against.

The library pools participants inline inside its one batched
negative-sampling kernel, so tests state what it must produce without
reusing its code:

- the pooling functions compute the same hidden layers one relation at a
  time from explicit vectors;
- ``ns_terms`` gives one example's output entries (the target, then the
  negatives) with their rows, scores and coefficients, as the kernel's
  output half ``_ns_output`` must, and ``ns_loss_and_grads`` adds its loss
  and hidden gradient, which ``_ns_batch`` forms from those entries for
  training, with the output steps;
- ``batch_reference`` restates the kernel's batch semantics as a loop over
  examples, and ``infer_reference`` restates ``infer_doc_vector`` as a
  loop over words: each word's window sum from the text's prefix sums, per
  entry the weight (lr / m_i) * coefficient, then one product of the
  weights with the entries' rows, in entry order;
- ``_window_context`` walks a token stream for one position's window
  words, and ``citation_examples_reference`` builds the citation pass's
  flat tables one relation at a time;
- ``top_k_reference`` is the ranking's top k for one score row, over
  every document or over the ones cited in training,
  ``shortlist_reference`` the float filters' shortlist rule as first
  written, and ``place_reference`` a target's place in a row by a full
  sort;
- ``thinning_draws_reference`` restates Case 2's counter-based draws for
  one relation with Python ints;
- ``vocabulary_reference``, ``citations_reference`` and the functions
  built on them are the corpus walks, token by token and relation by
  relation, that ``corpus`` replaced with flat tables: the vocabulary in
  first-appearance order, the relations of each citation marker, the held
  out citations, the statistics and the split.

``backprop`` runs the library kernel on a batch of one relation.
"""

import heapq
import importlib
import itertools

import numpy as np
from scipy.special import expit

from citevec.corpus import (
    _SPLIT_MIN_CITES, CITE, CitationRelation, CorpusStats, HyperDocument, Vocabulary,
    _window_bounds)
from citevec.errors import CitevecError, ConfigError
from citevec.model import _RNG_INFER
from citevec.train import NegativeSampler, _citation_examples, _ns_batch

train_module = importlib.import_module("citevec.train")  # the package exports train()


def _window_context(tokens, position: int, window: int) -> list[str]:
    """Words within `window` positions each side; citation markers are
    skipped and do not consume window slots."""
    before: list[str] = []
    i = position - 1
    while i >= 0 and len(before) < window:
        if not tokens[i].is_cite:
            before.append(tokens[i].value)
        i -= 1
    before.reverse()
    after: list[str] = []
    i = position + 1
    while i < len(tokens) and len(after) < window:
        if not tokens[i].is_cite:
            after.append(tokens[i].value)
        i += 1
    return before + after


def citation_examples_reference(relations, n_docs: int, structural_context: bool):
    """``_citation_examples``'s tables (targets, offsets, slots), one relation
    at a time: the source, its sorted structural docs, then n_docs + each
    context word."""
    slots: list[int] = []
    offsets = [0]
    for r in relations:
        slots.append(r.source)
        if structural_context:
            slots += sorted(r.structural)
        slots += [n_docs + w for w in r.context]
        offsets.append(len(slots))
    targets = [r.target for r in relations]
    return (
        np.asarray(targets, dtype=np.intp),
        np.asarray(offsets, dtype=np.intp),
        np.asarray(slots, dtype=np.intp),
    )


def ns_terms(hidden, target_out, negatives_out):
    """Per output row, the target first and then the negatives in order: the
    row, its score ``(row * hidden).sum()`` and its coefficient,
    ``expit(score) - 1`` for the target and ``expit(score)`` for a negative."""
    hidden = np.asarray(hidden, dtype=np.float64)
    rows = [np.asarray(target_out, dtype=np.float64)]
    rows += list(np.asarray(negatives_out, dtype=np.float64).reshape(-1, hidden.size))
    scores = [(row * hidden).sum() for row in rows]
    coeffs = [expit(score) - 1.0 if j == 0 else expit(score) for j, score in enumerate(scores)]
    return rows, scores, coeffs


def ns_loss_and_grads(hidden, target_out, negatives_out):
    """Negative-sampling loss and its exact gradients, in the kernel's order.

    loss = -log sigmoid(hidden . target) - sum_i log sigmoid(-hidden . negative_i)
    Scores and coefficients are ``ns_terms``'; the loss and the hidden
    gradient add up from zero, the target first, then the negatives in order.
    Returns (loss, grad wrt hidden, grad wrt target row, grads wrt negative rows).
    """
    hidden = np.asarray(hidden, dtype=np.float64)
    rows, scores, coeffs = ns_terms(hidden, target_out, negatives_out)
    loss = 0.0
    grad_hidden = np.zeros(hidden.size)
    for j, (row, score, coeff) in enumerate(zip(rows, scores, coeffs)):
        # -log sigmoid(z) == logaddexp(0, -z), stable for large |z|
        loss += np.logaddexp(0.0, -score if j == 0 else score)
        grad_hidden += coeff * row
    grad_rows = [coeff * hidden for coeff in coeffs]
    return float(loss), grad_hidden, grad_rows[0], np.array(grad_rows[1:])


def _stack_participants(source_vec, structural_vecs, context_vecs) -> np.ndarray:
    """Participant rows in the canonical order: source, structural, words."""
    blocks = []
    if source_vec is not None:
        blocks.append(np.asarray(source_vec, dtype=np.float64)[None, :])
    for group in (structural_vecs, context_vecs):
        if group is None:
            continue
        arr = np.asarray(group, dtype=np.float64)
        if arr.size == 0:
            continue
        if arr.ndim == 1:
            arr = arr[None, :]
        blocks.append(arr)
    if not blocks:
        raise ConfigError("hidden layer needs at least one participant")
    return np.concatenate(blocks, axis=0)


def hidden_avg(source_vec, structural_vecs=None, context_vecs=None) -> np.ndarray:
    """Uniform mean of the participant vectors."""
    parts = _stack_participants(source_vec, structural_vecs, context_vecs)
    weights = np.full(parts.shape[0], 1.0 / parts.shape[0])
    return weights @ parts


def attention_ratios(attention_scores, slots) -> np.ndarray:
    """Softmax over the participants' attention scores, max-subtracted."""
    slots = np.asarray(slots, dtype=np.intp)
    if slots.size == 0:
        raise ConfigError("attention needs at least one participant slot")
    scores = np.asarray(attention_scores, dtype=np.float64)[slots]
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def hidden_att(attention_scores, slots, source_vec, structural_vecs=None, context_vecs=None) -> np.ndarray:
    """Attention-weighted sum of the participant vectors.

    ``slots`` indexes the score vector in the same order the participants
    are stacked: source doc, structural docs, context words.
    """
    parts = _stack_participants(source_vec, structural_vecs, context_vecs)
    ratios = attention_ratios(attention_scores, slots)
    if ratios.shape[0] != parts.shape[0]:
        raise ConfigError(
            f"{parts.shape[0]} participants but {ratios.shape[0]} attention slots"
        )
    return ratios @ parts


def participant_slots(source: int, structural, context, n_docs: int) -> np.ndarray:
    """Attention-slot ids for one relation, in canonical participant order.

    Documents occupy slots [0, n_docs); word w sits at n_docs + w.
    """
    doc_part = np.asarray([source] + sorted(structural), dtype=np.intp)
    word_part = n_docs + np.asarray(tuple(context), dtype=np.intp)
    return np.concatenate((doc_part, word_part))


def backprop(variant, relation, matrices, sampler, lr, *, negative, structural_context=True) -> float:
    """One citation update for one relation, as a batch of one; returns the
    sampled loss before the step."""
    examples = _citation_examples([relation], matrices.n_docs, matrices.word_in.shape[0],
                                  structural_context)
    work = np.empty((3, max(examples.slots.size, 1 + negative), matrices.dim))
    loss, _ = _ns_batch(
        examples, 0, 1, matrices, matrices.doc_out, sampler, np.array([lr]), negative,
        attention=variant == "att", work=work,
    )
    return loss


def lr_schedule(update, total, learning_rate, min_lr) -> float:
    """The linear learning-rate decay, for one update number."""
    return max(min_lr, learning_rate + (min_lr - learning_rate) * (update / total))


def batch_reference(examples, matrices, out_name, sampler, lrs, negative, attention, batch):
    """The kernel's batch semantics, one example at a time.

    ``examples`` is a list of ``(target, slots)``; a slot below n_docs is a
    doc_in row and n_docs + w is word_in row w (and both are attention
    ids).  ``out_name`` names the output matrix, ``lrs`` holds one learning
    rate per example.  Every forward pass reads the parameters as they stood
    at its batch start; each touched row sums its steps from zero with
    ``np.add.at`` in example order, then participant (or target, then
    negative) order, and the sum is subtracted at the batch end.  Returns
    the summed loss of each batch and the number of skipped examples.
    """
    n_docs = matrices.n_docs
    batch_losses = []
    skipped = 0
    for lo in range(0, len(examples), batch):
        chunk = examples[lo : lo + batch]
        start = matrices.copy()
        start_out = getattr(start, out_name)
        steps = {name: np.zeros_like(a) for name, a in vars(start).items()}
        draws, kept = sampler.sample_rows(np.array([t for t, _ in chunk], dtype=np.intp), negative)
        losses = []
        for i, (target, slots) in enumerate(chunk):
            lr = lrs[lo + i]
            negatives = draws[i][kept[i]]
            if negatives.size == 0:
                skipped += 1
                losses.append(0.0)
                continue
            rows = [
                start.doc_in[s] if s < n_docs else start.word_in[s - n_docs] for s in slots
            ]
            if attention:
                scores = start.attention[slots]
                shifted = np.exp(scores - scores.max())
                total = 0.0
                for value in shifted:
                    total += value
                weights = shifted / total
            else:
                weights = [1.0 / len(slots)] * len(slots)
            hidden = np.zeros(start.dim)
            for weight, row in zip(weights, rows):
                hidden += weight * row

            loss = 0.0
            grad_hidden = np.zeros(start.dim)
            for j, o in enumerate([target, *negatives.tolist()]):
                score = (start_out[o] * hidden).sum()
                loss += np.logaddexp(0.0, -score if j == 0 else score)
                coeff = expit(score) - 1.0 if j == 0 else expit(score)
                grad_hidden += coeff * start_out[o]
                np.add.at(steps[out_name], o, (lr * coeff) * hidden)
            losses.append(loss)

            projections = [(row * grad_hidden).sum() for row in rows]
            mean = 0.0
            for weight, projection in zip(weights, projections):
                mean += weight * projection
            for s, weight, projection in zip(slots, weights, projections):
                if s < n_docs:
                    np.add.at(steps["doc_in"], s, (lr * weight) * grad_hidden)
                else:
                    np.add.at(steps["word_in"], s - n_docs, (lr * weight) * grad_hidden)
                if attention:
                    np.add.at(steps["attention"], s, lr * (weight * (projection - mean)))
        for name, step in steps.items():
            getattr(matrices, name)[...] = getattr(start, name) - step
        batch_losses.append(float(np.sum(np.array(losses))))
    return batch_losses, skipped


def infer_reference(model, words, steps, lr):
    """``infer_doc_vector`` one word at a time.

    Each step walks the text in batches of ``BATCH`` words.  A batch draws
    its words' noise words in one ``sample_rows`` call and pools word i as
    (window sum + vector) / m_i, m_i counting its window words and the
    vector.  The window sum comes from the prefix sums S of the text's word
    rows, added up one word at a time: ``S[right] - S[left] -
    word_in[word]``, where ``[left, right)`` holds the window words and
    word i.  Each of its entries (``ns_terms``: the target, then the kept
    noise words; none for a word that kept no noise word) gets the
    weight ``(lr / m_i) * coefficient``, and the vector, as it stood at the
    batch start, moves by ``-weights @ rows`` over the batch's entries in
    order.
    """
    word_in, word_out = model.matrices.word_in, model.matrices.word_out
    window, negative = model.config.window, model.config.negative
    sampler = NegativeSampler(model.vocab.word_counts, seed=[model.config.seed, _RNG_INFER])
    words = list(words)
    vec = word_in[words].mean(axis=0)
    sums = [np.zeros(vec.size)]
    for word in words:
        sums.append(sums[-1] + word_in[word])
    for _ in range(steps):
        for lo in range(0, len(words), train_module.BATCH):
            batch = words[lo : lo + train_module.BATCH]
            draws, kept = sampler.sample_rows(np.array(batch, dtype=np.intp), negative)
            weights, rows = [], []
            for i, word in enumerate(batch, start=lo):
                left, right = max(0, i - window), min(len(words), i + 1 + window)
                m = right - left
                hidden = (sums[right] - sums[left] - word_in[word] + vec) / m
                negatives = draws[i - lo][kept[i - lo]]
                if negatives.size:
                    entry_rows, _, coeffs = ns_terms(hidden, word_out[word], word_out[negatives])
                    weights += [(lr / m) * coeff for coeff in coeffs]
                    rows += entry_rows
            vec = vec - np.array(weights) @ np.array(rows).reshape(-1, vec.size)
    return vec


def top_k_reference(doc_list, scores, excluded, k, cited=None):
    """The best k document indices of one score row, best first, with the
    ``excluded`` indices left out, and with them every document that the
    mask ``cited`` (when given) does not hold; ties by ascending doc id,
    and +inf, finite scores, -inf, then NaN by id.

    A partition finds the k-th best key among the candidates; those ahead
    of it are taken, and the places left go to the smallest ids among the
    ones tied at it.
    """
    mask = np.ones(scores.size, dtype=bool)
    mask[np.asarray(sorted(set(excluded)), dtype=np.intp)] = False
    if cited is not None:
        mask &= cited
    candidates = np.flatnonzero(mask)
    if candidates.size <= k:
        selected = candidates.tolist()
    else:
        keys = -scores[candidates]  # ascending keys rank best first, NaN last
        kth = np.partition(keys, k - 1)[k - 1]
        if np.isnan(kth):
            tied = np.isnan(keys)
            ahead = ~tied
        else:
            ahead, tied = keys < kth, keys == kth
        places = k - int(np.count_nonzero(ahead))
        selected = candidates[ahead].tolist() + heapq.nsmallest(
            places, candidates[tied].tolist(), key=doc_list.__getitem__
        )
    by_id = np.asarray(sorted(selected, key=doc_list.__getitem__), dtype=np.intp)
    return by_id[np.argsort(-scores[by_id], kind="stable")].tolist()


def shortlist_reference(approx, slack, candidates, k):
    """``recommend._shortlist``'s rule in its first form, one full-length
    NumPy expression per step: the candidates, ascending, less the ones
    whose ``approx`` is below tau - ``slack``, tau being the k-th largest
    ``approx - slack`` in float64 among the candidates whose ``approx`` is
    not NaN (-inf with fewer than k of them)."""
    keys = np.where(candidates & ~np.isnan(approx), approx.astype(np.float64) - slack, -np.inf)
    tau = -np.inf
    if k <= keys.size:
        keys.partition(keys.size - k)
        tau = np.float64(keys[keys.size - k])
    return np.flatnonzero(candidates & ~(approx < tau - slack))


def place_reference(doc_list, scores, target, excluded):
    """How many of the documents of one score row, ``excluded`` left out,
    rank ahead of ``target`` in a full sort: +inf, finite scores
    descending, -inf, then NaN, ties by ascending doc id."""
    def key(j):
        score = scores[j]
        if np.isnan(score):
            return (3, 0.0, doc_list[j])
        if np.isinf(score):
            return (0 if score > 0 else 2, 0.0, doc_list[j])
        return (1, -score, doc_list[j])
    banned = set(excluded)
    ranked = sorted((j for j in range(scores.size) if j not in banned), key=key)
    return ranked.index(target)


# -- Case 2 draws --------------------------------------------------------------

_MASK = 2**64 - 1


def _mix_reference(x: int, y: int) -> int:
    x = (x * 0x9E3779B97F4A7C15 + y) & _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def thinning_draws_reference(relation, seed: int) -> list[float]:
    """Case 2's draw for each structural doc of ``relation``, ascending:
    the relation's key hashes each field's ids with their places (target,
    source or 2**64 - 1 for none, ascending structural docs, context words),
    and a doc's draw is the top 53 bits of a hash of the key, its place and
    the seed."""
    structural = sorted(relation.structural)
    source = _MASK if relation.source is None else relation.source
    fields = ([relation.target], [source], structural, list(relation.context))
    total = sum(_mix_reference(4 * place + field, i)
                for field, ids in enumerate(fields) for place, i in enumerate(ids))
    key = _mix_reference(total & _MASK, 0)
    return [(_mix_reference(_mix_reference(key, place), seed % 2**64) >> 11) / 2**53
            for place in range(len(structural))]


def thinned_reference(relation, keep_prob: float, seed: int) -> frozenset:
    """The structural docs that Case 2 keeps of ``relation``."""
    structural = sorted(relation.structural)
    return frozenset(doc for doc, draw in zip(structural, thinning_draws_reference(relation, seed))
                     if draw < keep_prob)


# -- corpus walks ------------------------------------------------------------

def vocabulary_reference(docs) -> Vocabulary:
    """Words and doc ids in first-appearance order, with counts: each doc's
    id, then its tokens in order."""
    vocab = Vocabulary()
    word_counts: list[int] = []
    cited_counts: list[int] = []

    def doc_slot(doc_id: str) -> int:
        idx = vocab.doc_ids.get(doc_id)
        if idx is None:
            idx = len(vocab.doc_list)
            vocab.doc_ids[doc_id] = idx
            vocab.doc_list.append(doc_id)
            cited_counts.append(0)
        return idx

    for doc in docs:
        doc_slot(doc.id)
        for token in doc.tokens:
            if token.kind == CITE:
                cited_counts[doc_slot(token.value)] += 1
            else:
                idx = vocab.word_ids.get(token.value)
                if idx is None:
                    idx = len(vocab.word_list)
                    vocab.word_ids[token.value] = idx
                    vocab.word_list.append(token.value)
                    word_counts.append(0)
                word_counts[idx] += 1

    vocab.word_counts = np.array(word_counts, dtype=np.int64)
    vocab.doc_cited_counts = np.array(cited_counts, dtype=np.int64)
    return vocab


def complete_corpus_reference(line_docs):
    vocab = vocabulary_reference(line_docs)
    present = {doc.id for doc in line_docs}
    placeholders = [HyperDocument(id=d, tokens=[], placeholder=True)
                    for d in vocab.doc_list if d not in present]
    return list(line_docs) + placeholders, vocab


def stats_reference(docs, vocab) -> CorpusStats:
    return CorpusStats(n_docs=len(docs), n_words=int(vocab.word_counts.sum()),
                       n_relations=int(vocab.doc_cited_counts.sum()))


def layout_reference(docs):
    """The docs' words end to end, the spans, and per marker (doc, gap, id)."""
    words: list[str] = []
    starts = [0]
    markers: list[tuple[int, int, str]] = []
    for j, doc in enumerate(docs):
        for token in doc.tokens:
            if token.kind == CITE:
                markers.append((j, len(words), token.value))
            else:
                words.append(token.value)
        starts.append(len(words))
    return words, np.array(starts, dtype=np.intp), markers


def citations_reference(docs, vocab, window: int):
    """Per citation marker, in corpus order: the citing doc, the source and
    target ids, the structural ids (the known ids the doc cites, less those
    two), the window's word ids, and the first name ``vocab`` lacks of the
    doc's id, the ids it cites and the window words, or None."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    words, starts, markers = layout_reference(docs)
    ids = [vocab.word_ids.get(w) for w in words]
    marker_docs, gaps = np.array([m[:2] for m in markers], dtype=np.intp).reshape(-1, 2).T
    lo, hi = _window_bounds(gaps, gaps, starts[marker_docs], starts[marker_docs + 1], window)
    bounds = zip(lo.tolist(), hi.tolist())
    for j, run in itertools.groupby(markers, key=lambda m: m[0]):
        run = list(run)
        doc = docs[j]
        source = vocab.doc_ids.get(doc.id)
        cited = {target_id: vocab.doc_ids.get(target_id) for _, _, target_id in run}
        known = {i for i in cited.values() if i is not None} - {source}
        missing = doc.id if source is None else next(
            (d for d, i in cited.items() if i is None), None)
        for (_, _, target_id), (a, b) in zip(run, bounds):
            target, context, name = cited[target_id], ids[a:b], missing
            if name is None and None in context:
                name = words[a + context.index(None)]
            yield doc, source, target, frozenset(known - {target}), context, name


def extract_relations_reference(docs, vocab, window: int) -> list[CitationRelation]:
    relations = []
    for doc, source, target, structural, context, missing in citations_reference(
            docs, vocab, window):
        if missing is not None:
            raise CitevecError(f"{missing!r} in doc {doc.id!r} is not in the vocabulary")
        relations.append(CitationRelation(source, target, structural, tuple(context)))
    return relations


def resolve_ground_truth_reference(test_docs, vocab, window: int):
    entries, dropped = [], 0
    for _, source, target, structural, context, _ in citations_reference(test_docs, vocab, window):
        if target is None:
            dropped += 1
            continue
        entries.append(CitationRelation(source, target, structural,
                                        tuple(w for w in context if w is not None)))
    return entries, dropped


def split_reference(docs, window: int, fraction: float | None = None, test_ids=None, seed: int = 0):
    """``split_train_test``'s fields, by the walks above: (train docs,
    train vocabulary, test docs, ground truth, dropped, test doc ids)."""
    line_docs = [d for d in docs if not d.placeholder]
    if test_ids is not None:
        held = [d for d in line_docs if d.id in set(test_ids)]
    else:
        eligible = [d for d in line_docs
                    if sum(t.kind == CITE for t in d.tokens) >= _SPLIT_MIN_CITES]
        n_test = int(round(fraction * len(eligible)))
        if n_test < 1 or n_test >= len(line_docs):
            raise CitevecError(
                f"test split selects {n_test} of {len(eligible)} eligible docs; "
                "nothing to hold out or nothing left to train on")
        picks = np.random.default_rng(seed).permutation(len(eligible))[:n_test]
        held = [eligible[i] for i in sorted(picks)]
    held_ids = {d.id for d in held}
    train_line_docs = [d for d in line_docs if d.id not in held_ids]
    if not train_line_docs:
        raise CitevecError("no training documents left after the split")
    train_docs, train_vocab = complete_corpus_reference(train_line_docs)
    truth, dropped = resolve_ground_truth_reference(held, train_vocab, window)
    if not truth:
        raise CitevecError("empty test set: no held-out citation could be resolved")
    return train_docs, train_vocab, held, truth, dropped, sorted(held_ids)
