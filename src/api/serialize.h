/**
 * @file
 * Stable, versioned text serialization for encodings and
 * compilation results — the persistence layer under the
 * CompilerService's content-addressed cache and any future
 * wire protocol.
 *
 * Format: line-oriented ASCII with a `fermihedral-<kind> v1`
 * header. Pauli strings are stored as their labels (phase prefix
 * included), floating-point coefficients as C99 hexfloats, so
 * round trips are bit-exact, not just approximate.
 *
 * Key invariants:
 *  - parse*(serialize*(x)) reproduces every serialized field of x
 *    exactly: modes, qubit counts, phases, coefficients, group
 *    structure. Run statistics (searchSeconds, mappingSeconds,
 *    fromCache) are transport metadata and are NOT serialized;
 *    CompilationResult::validation is recomputed on parse.
 *  - tryParse*() never throws and never writes diagnostics: any
 *    malformed, truncated or version-mismatched input returns
 *    std::nullopt (the cache treats it as a miss). parse*() is the
 *    fatal-diagnostic wrapper for inputs that must be well-formed.
 *  - The version tag is bumped whenever the format changes;
 *    readers reject versions they do not know.
 */

#ifndef FERMIHEDRAL_API_SERIALIZE_H
#define FERMIHEDRAL_API_SERIALIZE_H

#include <optional>
#include <string>
#include <string_view>

#include "api/compiler.h"
#include "api/model_spec.h"
#include "encodings/encoding.h"

namespace fermihedral::api {

/** Serialize a wire request spec (`fermihedral-request v1`). */
std::string serializeRequestSpec(const RequestSpec &spec);

/**
 * Parse a request spec; std::nullopt on any malformed input. The
 * check is syntax only: whether the spec names a real model,
 * strategy and topology that can compile together is
 * tryBuildRequest's question (api/model_spec.h).
 */
std::optional<RequestSpec> tryParseRequestSpec(
    std::string_view text);

/** Serialize an encoding (versioned text, round-trip exact). */
std::string serializeEncoding(const enc::FermionEncoding &encoding);

/** Parse an encoding; std::nullopt on any malformed input. */
std::optional<enc::FermionEncoding> tryParseEncoding(
    std::string_view text);

/** Parse an encoding; malformed input is a fatal diagnostic. */
enc::FermionEncoding parseEncoding(std::string_view text);

/** Serialize a search outcome (the cache's stored payload). */
std::string serializeOutcome(const SearchOutcome &outcome);

/** Parse a search outcome; std::nullopt on malformed input. */
std::optional<SearchOutcome> tryParseOutcome(std::string_view text);

/** Serialize a full compilation result (stats excluded). */
std::string serializeResult(const CompilationResult &result);

/** Parse a result; std::nullopt on any malformed input. */
std::optional<CompilationResult> tryParseResult(
    std::string_view text);

/** Parse a result; malformed input is a fatal diagnostic. */
CompilationResult parseResult(std::string_view text);

} // namespace fermihedral::api

#endif // FERMIHEDRAL_API_SERIALIZE_H
