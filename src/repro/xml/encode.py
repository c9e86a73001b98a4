"""The DTD-based ranked encoding of unranked trees (Section 10).

``enc_D(R, w)`` groups the children of each element by the regular
subexpressions of the DTD's content models:

* ``f(enc_D(D(f), w'))`` for an element ``f`` (rank 0 when ``EMPTY``);
* ``pcdata`` for character data;
* ``R*(#, #)`` for an empty list, ``R*(enc(R, w1), enc(R*, w2…wn))``
  otherwise — a cons-list;
* ``R+(enc(R, w1), #)`` / ``R+(enc(R, w1), enc(R+, w2…wn))``;
* ``R?(#)`` / ``R?(enc(R, w1))``;
* ``(R1|…|Rm)(enc(Ri, w))`` for the unique matching branch;
* ``(R1,…,Rm)(enc(R1, w1), …, enc(Rm, wm))`` for the unique split.

The optional **fusion** mode collapses an element whose content model is
a plain sequence into a single node of rank ``n`` — the presentation the
paper uses for the §10 library example (``B(x1, x2, x3)``).

Character-data *values* are not part of the formal model (every text
node encodes to the constant ``pcdata``); the encoder returns them in a
side table keyed by the Dewey address of the ``pcdata`` leaf, so that a
transformation result can be re-hydrated (see
:func:`repro.transducers.origins.apply_with_origins`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AmbiguousContentModelError, DTDError, EncodingError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
from repro.xml.dtd import (
    DTD,
    Alt,
    ContentModel,
    ElementRe,
    Empty,
    HASH_LABEL,
    Opt,
    PCDataRe,
    PCDATA_SYMBOL,
    Plus,
    Seq,
    Star,
)
from repro.xml.unranked import PCDATA_LABEL, UTree

HASH = Tree(HASH_LABEL, ())
PCDATA_LEAF = Tree(PCDATA_SYMBOL, ())

#: The two abstract text-value constants used by ``abstract_values`` mode.
VALUE_LABELS = ("v0", "v1")

Values = Dict[Tuple[int, ...], str]


def abstract_value_of(text: Optional[str]) -> str:
    """Stable two-way abstraction of a text value (``v0`` or ``v1``).

    Input and output documents encode the same string to the same
    abstract value, so copying of text is observable in encoded samples.
    The abstraction is the byte-sum parity: strings differing in a final
    counter digit (``title1`` vs ``title2``) land on different values,
    which is what example generators rely on to exhibit both values.
    """
    data = (text or "").encode("utf-8")
    return VALUE_LABELS[sum(data) & 1]


class DTDEncoder:
    """Encoder/decoder between unranked documents and ranked trees.

    Parameters
    ----------
    dtd:
        The document type the documents conform to.
    fuse:
        Collapse elements whose content model is a plain sequence
        ``(R1,…,Rn)`` into rank-``n`` nodes (paper §10 style).
    compact_lists:
        Encode the *empty* list as the leaf ``#`` instead of the paper's
        ``R*(#, #)``.  With the paper's rule the two children of a star
        node are correlated (both ``#`` or both proper), the encoding
        language is not path-closed, and the variable alignment of
        Lemma 23 cannot be inferred from encoded documents alone — the
        characteristic sample must contain path-closure trees that encode
        no document.  The compact rule removes the correlation: the
        encoding language becomes path-closed and transformations like
        ``xmlflip`` are learnable from document examples (experiment E5).
    abstract_values:
        Encode character data as ``pcdata(v)`` with ``v`` one of two
        abstract value constants ``v0``/``v1`` (chosen by a stable hash
        of the text) instead of the bare constant ``pcdata``.  In the
        bare model all text content is a single constant, so the earliest
        normal form absorbs it into ground output and the machine never
        *copies* text — value rehydration then has nothing to track.
        Two abstract values make text positions two-valued (exactly the
        paper's notion from Section 5), forcing copy states like the
        ``q_P`` of the paper's §10 machine and making provenance exact.
    """

    def __init__(
        self,
        dtd: DTD,
        fuse: bool = False,
        compact_lists: bool = False,
        abstract_values: bool = False,
    ):
        self.dtd = dtd
        self.fuse = fuse
        self.compact_lists = compact_lists
        self.abstract_values = abstract_values
        self._registry: Dict[str, ContentModel] = {}
        self._ranks: Dict[str, int] = {HASH_LABEL: 0}
        if abstract_values:
            self._ranks[PCDATA_SYMBOL] = 1
            for value_label in VALUE_LABELS:
                self._ranks[value_label] = 0
        else:
            self._ranks[PCDATA_SYMBOL] = 0
        self._collect_alphabet()

    # ------------------------------------------------------------------
    # Alphabet
    # ------------------------------------------------------------------

    def _declare(self, label: str, rank: int) -> None:
        if self._ranks.get(label, rank) != rank:
            raise DTDError(
                f"encoding symbol {label!r} needed with ranks "
                f"{self._ranks[label]} and {rank}"
            )
        self._ranks[label] = rank

    def _element_rank(self, name: str) -> int:
        model = self.dtd.content(name)
        if isinstance(model, Empty):
            return 0
        if self.fuse and isinstance(model, Seq):
            return len(model.parts)
        return 1

    def _collect_alphabet(self) -> None:
        for name, model in self.dtd.elements.items():
            self._declare(name, self._element_rank(name))
            top_fused = self.fuse and isinstance(model, Seq)
            for sub in model.subexpressions():
                if sub is model and top_fused:
                    continue  # the fused sequence node is elided
                if isinstance(sub, (Empty, ElementRe)):
                    continue  # elements are declared above
                if isinstance(sub, PCDataRe):
                    self._declare(PCDATA_SYMBOL, 1 if self.abstract_values else 0)
                    continue
                label = sub.label()
                if isinstance(sub, (Star, Plus)):
                    self._declare(label, 2)
                elif isinstance(sub, (Opt, Alt)):
                    self._declare(label, 1)
                elif isinstance(sub, Seq):
                    self._declare(label, len(sub.parts))
                self._registry.setdefault(label, sub)

    @property
    def alphabet(self) -> RankedAlphabet:
        """The ranked encoding alphabet derived from the DTD."""
        return RankedAlphabet(self._ranks)

    # ------------------------------------------------------------------
    # Unambiguous sequence parsing
    # ------------------------------------------------------------------

    def _spans(
        self,
        model: ContentModel,
        items: Tuple[UTree, ...],
        i: int,
        j: int,
        memo: Dict,
    ) -> bool:
        """Can ``model`` generate ``items[i:j]``?"""
        return j in self._ends(model, items, i, memo)

    def _ends(
        self, model: ContentModel, items: Tuple[UTree, ...], i: int, memo: Dict
    ) -> Set[int]:
        """Every ``j`` such that ``model`` generates ``items[i:j]``.

        Memoized per ``(model, start)``, so each content-model node is
        matched once per child position: linear in the number of
        children for the usual one-item ``Star``/``Plus`` bodies, where
        trying every split point of every span was cubic.  Callers must
        not mutate the returned set.
        """
        key = (id(model), i)
        ends = memo.get(key)
        if ends is None:
            ends = memo[key] = self._ends_raw(model, items, i, memo)
        return ends

    def _ends_raw(self, model, items, i, memo) -> Set[int]:
        if isinstance(model, Empty):
            return {i}
        if isinstance(model, PCDataRe):
            return {i + 1} if i < len(items) and items[i].is_text else set()
        if isinstance(model, ElementRe):
            matches = (
                i < len(items)
                and not items[i].is_text
                and items[i].label == model.name
            )
            return {i + 1} if matches else set()
        if isinstance(model, (Star, Plus)):
            # Only iterations that consume an item count (``k > i``), so
            # the recursion moves right and ends.
            ends = {i} if isinstance(model, Star) else set()
            for k in self._ends(model.inner, items, i, memo):
                if k > i:
                    ends.add(k)
                    ends |= self._ends(model, items, k, memo)
            return ends
        if isinstance(model, Opt):
            return {i} | self._ends(model.inner, items, i, memo)
        if isinstance(model, Alt):
            ends = set()
            for part in model.parts:
                ends |= self._ends(part, items, i, memo)
            return ends
        if isinstance(model, Seq):
            ends = {i}
            for part in model.parts:
                ends = {
                    k
                    for position in ends
                    for k in self._ends(part, items, position, memo)
                }
            return ends
        raise DTDError(f"unknown content model node {model!r}")

    def _seq_splits(
        self, parts, items, i, j, memo, cap: int = 2
    ) -> List[Tuple[int, ...]]:
        """Up to ``cap`` ways to split ``items[i:j]`` across ``parts``.

        A split is the tuple of boundary indices (len(parts)+1 entries).
        """
        results: List[Tuple[int, ...]] = []

        def recurse(index: int, position: int, bounds: Tuple[int, ...]) -> None:
            if len(results) >= cap:
                return
            if index == len(parts):
                if position == j:
                    results.append(bounds + (j,))
                return
            for k in sorted(self._ends(parts[index], items, position, memo)):
                if k > j:
                    return
                recurse(index + 1, k, bounds + (k,))
                if len(results) >= cap:
                    return

        recurse(0, i, (i,))
        return results

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, document: UTree) -> Tree:
        """Encode a document; values are dropped (the paper's model)."""
        tree, _values = self.encode_with_values(document)
        return tree

    def encode_with_values(self, document: UTree) -> Tuple[Tree, Values]:
        """Encode a document, returning the ranked tree and its text values.

        The value table maps Dewey addresses of ``pcdata`` leaves in the
        encoded tree to the original character data.
        """
        if document.is_text:
            raise EncodingError("the document root cannot be a text node")
        if document.label != self.dtd.start:
            raise EncodingError(
                f"root element {document.label!r} is not the DTD start "
                f"element {self.dtd.start!r}"
            )
        tree = self._encode_element(document)
        values: Values = {}
        texts = [
            node.text
            for _, node in sorted(document.subtrees())
            if node.is_text and node.text is not None
        ]
        if self.abstract_values:
            slots = [
                address
                for address, node in sorted(tree.subtrees())
                if node.label in VALUE_LABELS
            ]
        else:
            slots = [
                address
                for address, node in sorted(tree.subtrees())
                if node.label == PCDATA_SYMBOL
            ]
        for address, value in zip(slots, texts):
            values[address] = value
        return tree, values

    def _encode_element(self, node: UTree) -> Tree:
        if node.is_text:
            raise EncodingError("expected an element, found text")
        model = self.dtd.content(node.label)
        memo: Dict = {}
        items = node.children
        if isinstance(model, Empty):
            if items:
                raise EncodingError(f"element {node.label!r} must be EMPTY")
            return Tree(node.label, ())
        if self.fuse and isinstance(model, Seq):
            splits = self._seq_splits(model.parts, items, 0, len(items), memo)
            if not splits:
                raise EncodingError(
                    f"children of {node.label!r} do not match {model.label()}"
                )
            if len(splits) > 1:
                raise AmbiguousContentModelError(
                    f"children of {node.label!r} parse ambiguously "
                    f"against {model.label()}"
                )
            bounds = splits[0]
            encoded = tuple(
                self._encode_span(part, items, bounds[k], bounds[k + 1], memo)
                for k, part in enumerate(model.parts)
            )
            return Tree(node.label, encoded)
        return Tree(
            node.label,
            (self._encode_span(model, items, 0, len(items), memo),),
        )

    def _encode_span(
        self, model: ContentModel, items: Tuple[UTree, ...], i: int, j: int, memo
    ) -> Tree:
        """``enc_D(R, items[i:j])`` — the unique parse, or an error."""
        if isinstance(model, PCDataRe):
            if not (j == i + 1 and items[i].is_text):
                raise EncodingError("expected character data")
            if self.abstract_values:
                value = abstract_value_of(items[i].text)
                return Tree(PCDATA_SYMBOL, (Tree(value, ()),))
            return PCDATA_LEAF
        if isinstance(model, ElementRe):
            if not (j == i + 1 and not items[i].is_text and items[i].label == model.name):
                raise EncodingError(f"expected a {model.name!r} element")
            return self._encode_element(items[i])
        if isinstance(model, Star):
            label = model.label()
            if i == j:
                return HASH if self.compact_lists else Tree(label, (HASH, HASH))
            cuts = [
                k
                for k in sorted(self._ends(model.inner, items, i, memo))
                if i < k <= j and self._spans(model, items, k, j, memo)
            ]
            return self._cons(model, label, items, i, j, cuts, memo, star=True)
        if isinstance(model, Plus):
            label = model.label()
            cuts = [
                k
                for k in sorted(self._ends(model.inner, items, i, memo))
                if i < k <= j
                and (k == j or self._spans(model, items, k, j, memo))
            ]
            if len(cuts) == 1 and cuts[0] == j:
                head = self._encode_span(model.inner, items, i, j, memo)
                return Tree(label, (head, HASH))
            return self._cons(model, label, items, i, j, cuts, memo, star=False)
        if isinstance(model, Opt):
            label = model.label()
            if i == j:
                return Tree(label, (HASH,))
            return Tree(label, (self._encode_span(model.inner, items, i, j, memo),))
        if isinstance(model, Alt):
            matching = [
                p for p in model.parts if self._spans(p, items, i, j, memo)
            ]
            if not matching:
                raise EncodingError(
                    f"no branch of {model.label()} matches the children"
                )
            if len(matching) > 1:
                raise AmbiguousContentModelError(
                    f"multiple branches of {model.label()} match"
                )
            return Tree(
                model.label(),
                (self._encode_span(matching[0], items, i, j, memo),),
            )
        if isinstance(model, Seq):
            splits = self._seq_splits(model.parts, items, i, j, memo)
            if not splits:
                raise EncodingError(f"children do not match {model.label()}")
            if len(splits) > 1:
                raise AmbiguousContentModelError(
                    f"ambiguous parse against {model.label()}"
                )
            bounds = splits[0]
            return Tree(
                model.label(),
                tuple(
                    self._encode_span(part, items, bounds[k], bounds[k + 1], memo)
                    for k, part in enumerate(model.parts)
                ),
            )
        raise DTDError(f"cannot encode against {model!r}")

    def _cons(self, model, label, items, i, j, cuts, memo, star: bool) -> Tree:
        if not cuts:
            raise EncodingError(f"children do not match {label}")
        if len(cuts) > 1:
            raise AmbiguousContentModelError(
                f"ambiguous parse against {label} "
                f"(the DTD is not 1-unambiguous)"
            )
        k = cuts[0]
        head = self._encode_span(model.inner, items, i, k, memo)
        if star or k < j:
            tail = self._encode_span(model, items, k, j, memo)
        else:
            tail = HASH
        return Tree(label, (head, tail))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(self, tree: Tree, values: Optional[Values] = None) -> UTree:
        """Decode a ranked encoding back to an unranked document.

        ``values`` optionally rehydrates text content by Dewey address of
        the ``pcdata`` leaves.
        """
        values = values or {}
        decoded = self._decode_items(tree, (), values)
        if len(decoded) != 1 or decoded[0].is_text:
            raise EncodingError("the tree does not decode to a single element")
        return decoded[0]

    def _decode_items(
        self, node: Tree, address: Tuple[int, ...], values: Values
    ) -> List[UTree]:
        label = node.label
        if label == HASH_LABEL:
            return []
        if label == PCDATA_SYMBOL:
            if node.children:  # abstract-values mode: pcdata(v0|v1)
                return [UTree(PCDATA_LABEL, (), values.get(address + (1,)))]
            return [UTree(PCDATA_LABEL, (), values.get(address))]
        if label in self.dtd.elements:
            children: List[UTree] = []
            for index, child in enumerate(node.children, start=1):
                children.extend(
                    self._decode_items(child, address + (index,), values)
                )
            return [UTree(str(label), tuple(children))]
        model = self._registry.get(label)
        if model is None:
            raise EncodingError(f"unknown encoding symbol {label!r}")
        items: List[UTree] = []
        for index, child in enumerate(node.children, start=1):
            items.extend(self._decode_items(child, address + (index,), values))
        return items

    def roundtrip(self, document: UTree) -> UTree:
        """Encode then decode — identity on valid documents (with values)."""
        tree, values = self.encode_with_values(document)
        return self.decode(tree, values)
