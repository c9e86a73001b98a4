"""End-to-end JSON-to-JSON transformations over the ranked encoding.

Mirrors :mod:`repro.xml.pipeline`: a :class:`JsonTransformation` wraps a
DTOP over the JSON encoding alphabet and encodes → transduces → decodes,
rehydrating scalar values through origin tracking.  Because the encoding
is schema-less, one :class:`~repro.json.encode.JsonEncoder` serves both
sides.

``learn_json_transformation`` runs ``RPNI_dtop`` on encoded example
pairs with the local-DTTA domain heuristic (the encoding language is
local in exactly the sense of
:func:`repro.automata.build.local_dtta_from_trees`).

Artifacts: :data:`JSON_BUNDLE_FORMAT` (``repro/json-transformation@1``)
bundles the transducer and the domain automaton; the server registry
serves them next to the XML bundles with the same hot-reload,
``.engine`` sidecar, and micro-batching machinery.
"""

from __future__ import annotations

import json as _json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.automata.build import local_dtta_from_trees
from repro.automata.dtta import DTTA
from repro.engine import engine_for
from repro.errors import ReproError
from repro.learning.rpni import LearnedDTOP, rpni_dtop
from repro.learning.sample import Sample
from repro.obs.trace import NULL_TRACE
from repro.serialize import (
    dtop_from_data,
    dtop_to_data,
    dtta_from_data,
    dtta_to_data,
)
from repro.transducers.dtop import DTOP
from repro.transducers.origins import apply_with_origins
from repro.xml.encode import VALUE_LABELS

from repro.json.encode import JsonEncoder, Values
from repro.json.jsonio import JsonValue

#: Registry artifact format for served JSON transformations.
JSON_BUNDLE_FORMAT = "repro/json-transformation@1"


@dataclass
class JsonTransformation:
    """A JSON-to-JSON transformation (hand-written or learned).

    ``apply`` works on plain JSON values; scalars are carried through by
    provenance — each output value leaf takes the scalar of the input
    position the emitting rule was reading.
    """

    transducer: DTOP
    encoder: JsonEncoder
    domain: DTTA
    learned: Optional[LearnedDTOP] = None

    def apply_encoded(self, encoded):
        """Run the transducer on an already-encoded ranked tree."""
        return self.transducer.apply(encoded)

    def apply(self, document: JsonValue) -> JsonValue:
        """Transform one JSON value of the modeled subset."""
        encoded, values = self.encoder.encode_with_values(document)
        output, origins = apply_with_origins(self.transducer, encoded)
        return self._decode_with_values(output, origins, values)

    def _decode_with_values(
        self,
        output,
        origins: Dict[Tuple[int, ...], Tuple[int, ...]],
        values: Values,
    ) -> JsonValue:
        out_values: Values = {}
        for address, node in output.subtrees():
            if node.label in VALUE_LABELS and address in origins:
                value = values.get(origins[address])
                if value is not None:
                    out_values[address] = value
        return self.encoder.decode(output, out_values)

    def apply_batch(
        self,
        documents: Iterable[JsonValue],
        jobs: Optional[int] = None,
        service: Optional["TransformService"] = None,
        backend: Optional[str] = None,
        trace=None,
    ) -> List[Union[JsonValue, ReproError]]:
        """Transform a batch of documents; per-document outcomes.

        Exactly the XML contract
        (:meth:`repro.xml.pipeline.XMLTransformation.apply_batch`):
        value-free documents (booleans, nulls, empty containers) go
        through the compiled batch engine in one sweep; documents
        carrying scalars need the origin-tracking interpreter to
        rehydrate and run individually.  Failures are per-document.
        A ``trace`` collects the pipeline's encode/execute/decode spans.
        """
        if trace is None:
            trace = NULL_TRACE
        prepared: List[Union[Tuple, ReproError]] = []
        engine_inputs = []
        with trace.span("pipeline.encode", codec="json"):
            for document in documents:
                try:
                    encoded, values = self.encoder.encode_with_values(document)
                except ReproError as error:
                    prepared.append(error)
                    continue
                except RecursionError:
                    prepared.append(
                        ReproError(
                            "document encoding exceeded the recursion limit "
                            "(the JSON encoder is recursive over nesting)"
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
        results: List[Union[JsonValue, ReproError]] = []
        with trace.span("pipeline.decode", codec="json"):
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
                            results.append(self.encoder.decode(outcome))
                except ReproError as error:
                    results.append(error)
                except RecursionError:
                    results.append(
                        ReproError(
                            "document translation exceeded the recursion limit "
                            "(origin tracking and JSON decoding are recursive)"
                        )
                    )
        return results

    def apply_stream(
        self,
        documents: Iterable[JsonValue],
        jobs: Optional[int] = None,
        chunk_docs: int = 64,
        backend: Optional[str] = None,
    ):
        """Transform a document stream incrementally; yields outcomes.

        Pair with :func:`repro.json.jsonio.iter_json_documents` and the
        corpus is never materialized.  Outcomes stream back in input
        order, identical to :meth:`apply_batch` on the full list.
        """
        service = None
        try:
            if jobs is not None and jobs > 1:
                from repro.serve import TransformService

                service = TransformService(
                    self.transducer, jobs=jobs, backend=backend
                )
            window: List[JsonValue] = []
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


def encoded_json_sample(
    examples: Iterable[Tuple[JsonValue, JsonValue]],
    encoder: JsonEncoder,
) -> Sample:
    """Encode JSON example pairs into a ranked-tree sample."""
    pairs = []
    for source, target in examples:
        pairs.append((encoder.encode(source), encoder.encode(target)))
    return Sample(pairs)


def learn_json_transformation(
    examples: Iterable[Tuple[JsonValue, JsonValue]],
    domain: Optional[DTTA] = None,
) -> JsonTransformation:
    """Learn a JSON transformation from example value pairs.

    The examples must form (a superset of) a characteristic sample of
    the target over the encoded trees.  Without an explicit ``domain``
    the local-DTTA heuristic infers one from the encoded inputs (the
    encoding language is local, so the heuristic is exact on
    key-complete examples).
    """
    encoder = JsonEncoder()
    sample = encoded_json_sample(examples, encoder)
    if domain is None:
        domain = local_dtta_from_trees([pair[0] for pair in sample.pairs])
    learned = rpni_dtop(sample, domain)
    return JsonTransformation(
        transducer=learned.dtop,
        encoder=encoder,
        domain=learned.domain,
        learned=learned,
    )


def json_transformation_to_bundle(
    transformation: JsonTransformation,
) -> dict:
    """The JSON bundle dict of a transformation (transducer + domain)."""
    return {
        "format": JSON_BUNDLE_FORMAT,
        "transducer": dtop_to_data(transformation.transducer),
        "domain": dtta_to_data(transformation.domain),
    }


def json_transformation_from_bundle(bundle: dict) -> JsonTransformation:
    """Rebuild a transformation from an already-parsed bundle dict.

    The encoder is schema-less and carries no state worth persisting —
    a fresh one registers keys as documents arrive.
    """
    return JsonTransformation(
        transducer=dtop_from_data(bundle["transducer"]),
        encoder=JsonEncoder(),
        domain=dtta_from_data(bundle["domain"]),
    )


def save_json_transformation(
    transformation: JsonTransformation, path: Union[str, Path]
) -> None:
    """Persist a transformation as a ``repro/json-transformation@1`` file."""
    bundle = json_transformation_to_bundle(transformation)
    Path(path).write_text(
        _json.dumps(bundle, indent=2, ensure_ascii=False)
    )


def load_json_transformation(path: Union[str, Path]) -> JsonTransformation:
    """Load a transformation saved by :func:`save_json_transformation`."""
    bundle = _json.loads(Path(path).read_text())
    if bundle.get("format") != JSON_BUNDLE_FORMAT:
        raise ReproError(f"{path} is not a {JSON_BUNDLE_FORMAT} bundle")
    return json_transformation_from_bundle(bundle)
