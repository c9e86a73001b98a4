"""End-to-end learning of XML-to-XML transformations (Section 10).

Given input and output DTDs and example document pairs, the pipeline

1. encodes both sides with the DTD-based encoding,
2. builds the domain DTTA from the input DTD,
3. runs ``RPNI_dtop`` on the encoded pairs, and
4. wraps the learned transducer as an :class:`XMLTransformation` that
   encodes → transduces → decodes, rehydrating character data through
   origin tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.automata.dtta import DTTA
from repro.engine import engine_for
from repro.errors import ReproError
from repro.learning.rpni import LearnedDTOP, rpni_dtop
from repro.learning.sample import Sample
from repro.obs.trace import NULL_TRACE
from repro.transducers.dtop import DTOP
from repro.transducers.origins import apply_with_origins
from repro.xml.dtd import DTD, PCDATA_SYMBOL
from repro.xml.encode import VALUE_LABELS
from repro.xml.encode import DTDEncoder
from repro.xml.schema import schema_dtta
from repro.xml.unranked import UTree


@dataclass
class XMLTransformation:
    """A learned XML-to-XML transformation.

    ``apply`` works on unranked documents; character data is carried
    through by provenance: each output ``pcdata`` leaf takes the value of
    the input text node that the emitting rule was reading.
    """

    transducer: DTOP
    input_encoder: DTDEncoder
    output_encoder: DTDEncoder
    domain: DTTA
    learned: Optional[LearnedDTOP] = None

    def apply_encoded(self, encoded):
        """Run the transducer on an already-encoded ranked tree."""
        return self.transducer.apply(encoded)

    def apply(self, document: UTree) -> UTree:
        """Transform an unranked document conforming to the input DTD."""
        encoded, values = self.input_encoder.encode_with_values(document)
        output, origins = apply_with_origins(self.transducer, encoded)
        return self._decode_with_values(output, origins, values)

    def _decode_with_values(
        self,
        output,
        origins: Dict[Tuple[int, ...], Tuple[int, ...]],
        values: Dict[Tuple[int, ...], str],
    ) -> UTree:
        value_labels = (
            VALUE_LABELS
            if self.output_encoder.abstract_values
            else (PCDATA_SYMBOL,)
        )
        out_values: Dict[Tuple[int, ...], str] = {}
        for address, node in output.subtrees():
            if node.label in value_labels and address in origins:
                value = values.get(origins[address])
                if value is not None:
                    out_values[address] = value
        return self.output_encoder.decode(output, out_values)

    def apply_batch(
        self,
        documents: Iterable[UTree],
        jobs: Optional[int] = None,
        service: Optional["TransformService"] = None,
        backend: Optional[str] = None,
        trace=None,
    ) -> List[Union[UTree, ReproError]]:
        """Transform a batch of documents; per-document outcomes.

        Value-free documents are translated through the compiled batch
        engine in **one** bottom-up sweep (:mod:`repro.engine`), so
        structure shared between them is paid for once.  Documents that
        carry character data need the origin-tracking interpreter to
        rehydrate their text values — provenance is per-occurrence and
        cannot be memoized or batched — and are translated individually.
        All failures (non-conforming, out-of-domain, or too deep for the
        recursive origin tracker) are reported per document without
        aborting the batch.

        ``jobs > 1`` shards the engine-eligible documents across a
        worker pool (:class:`~repro.serve.service.TransformService`)
        created for this call; pass a live ``service`` (built over
        ``self.transducer``) instead to amortize the pool across many
        batches — the streaming path of :meth:`apply_stream` does.
        Outcomes are identical either way.  ``backend`` names the
        execution backend for the engine path (and for pools created by
        this call); a live ``service`` carries its own.  A ``trace``
        collects the pipeline's encode/execute/decode spans.
        """
        if trace is None:
            trace = NULL_TRACE
        prepared: List[Union[Tuple, ReproError]] = []
        engine_inputs = []
        with trace.span("pipeline.encode", codec="xml"):
            for document in documents:
                try:
                    encoded, values = self.input_encoder.encode_with_values(
                        document
                    )
                except ReproError as error:
                    prepared.append(error)
                    continue
                except RecursionError:
                    prepared.append(
                        ReproError(
                            "document encoding exceeded the recursion limit "
                            "(the DTD encoder is recursive)"
                        )
                    )
                    continue
                prepared.append((encoded, values))
                if not values:
                    engine_inputs.append(encoded)
        if service is not None:
            raw_outcomes = service.run_batch_outcomes(engine_inputs, trace=trace)
        elif jobs is not None and jobs > 1:
            from repro.serve import TransformService

            with TransformService(
                self.transducer, jobs=jobs, backend=backend
            ) as pool:
                raw_outcomes = pool.run_batch_outcomes(
                    engine_inputs, trace=trace
                )
        else:
            engine = engine_for(self.transducer, backend)
            with trace.span(
                "execute", backend=engine.backend, documents=len(engine_inputs)
            ):
                raw_outcomes = engine.run_batch_outcomes(engine_inputs)
        outcomes = iter(raw_outcomes)
        results: List[Union[UTree, ReproError]] = []
        with trace.span("pipeline.decode", codec="xml"):
            for entry in prepared:
                if isinstance(entry, ReproError):
                    results.append(entry)
                    continue
                encoded, values = entry
                try:
                    if values:
                        output, origins = apply_with_origins(
                            self.transducer, encoded
                        )
                        results.append(
                            self._decode_with_values(output, origins, values)
                        )
                    else:
                        outcome = next(outcomes)
                        if isinstance(outcome, ReproError):
                            results.append(outcome)
                        else:
                            results.append(self.output_encoder.decode(outcome))
                except ReproError as error:
                    results.append(error)
                except RecursionError:
                    results.append(
                        ReproError(
                            "document translation exceeded the recursion limit "
                            "(origin tracking and XML decoding are recursive)"
                        )
                    )
        return results

    def apply_stream(
        self,
        documents: Iterable[UTree],
        jobs: Optional[int] = None,
        chunk_docs: int = 64,
        backend: Optional[str] = None,
    ):
        """Transform a document stream incrementally; yields outcomes.

        Documents are consumed ``chunk_docs`` at a time — pair this with
        :func:`repro.serve.stream.iter_stream_documents` and the whole
        corpus is never materialized: memory is bounded by one chunk
        (plus the pool's in-flight window).  With ``jobs > 1`` one
        worker pool is created up front and amortized across every
        chunk.  Outcomes stream back in input order and are identical
        to :meth:`apply_batch` on the materialized list.
        """
        service = None
        try:
            if jobs is not None and jobs > 1:
                from repro.serve import TransformService

                service = TransformService(
                    self.transducer, jobs=jobs, backend=backend
                )
            window: List[UTree] = []
            for document in documents:
                window.append(document)
                if len(window) >= chunk_docs:
                    for outcome in self.apply_batch(
                        window, service=service, backend=backend
                    ):
                        yield outcome
                    window = []
            if window:
                for outcome in self.apply_batch(
                    window, service=service, backend=backend
                ):
                    yield outcome
        finally:
            if service is not None:
                service.close()

    @property
    def num_states(self) -> int:
        return len(self.transducer.states)

    @property
    def num_rules(self) -> int:
        return len(self.transducer.rules)


def encoded_sample(
    examples: Iterable[Tuple[UTree, UTree]],
    input_encoder: DTDEncoder,
    output_encoder: DTDEncoder,
) -> Sample:
    """Encode unranked example pairs into a ranked-tree sample."""
    pairs = []
    for source, target in examples:
        pairs.append((input_encoder.encode(source), output_encoder.encode(target)))
    return Sample(pairs)


def learn_xml_transformation(
    input_dtd: DTD,
    output_dtd: DTD,
    examples: Iterable[Tuple[UTree, UTree]],
    fuse_input: bool = False,
    fuse_output: bool = False,
    compact_lists: bool = False,
    abstract_values: bool = False,
) -> XMLTransformation:
    """Learn an XML transformation from document pairs and both DTDs.

    The examples must form (a superset of) a characteristic sample of the
    target transformation over the DTD-encoded trees; otherwise
    :class:`~repro.errors.InsufficientSampleError` explains what is
    missing.  With ``compact_lists=True`` (path-closed list encoding)
    document examples alone can be characteristic; with the paper's
    encoding some transformations additionally need path-closure trees
    (see :class:`~repro.xml.encode.DTDEncoder`).
    """
    input_encoder = DTDEncoder(
        input_dtd,
        fuse=fuse_input,
        compact_lists=compact_lists,
        abstract_values=abstract_values,
    )
    output_encoder = DTDEncoder(
        output_dtd,
        fuse=fuse_output,
        compact_lists=compact_lists,
        abstract_values=abstract_values,
    )
    domain = schema_dtta(input_encoder)
    sample = encoded_sample(examples, input_encoder, output_encoder)
    learned = rpni_dtop(sample, domain)
    return XMLTransformation(
        transducer=learned.dtop,
        input_encoder=input_encoder,
        output_encoder=output_encoder,
        domain=learned.domain,
        learned=learned,
    )
