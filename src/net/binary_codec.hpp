#pragma once

/// \file binary_codec.hpp
/// The compact binary frame body of the wire protocol — the negotiated
/// alternative to JSON (grammar and handshake: net/protocol.hpp). One
/// tag byte, varint (LEB128) integers and lengths, and raw
/// little-endian IEEE-754 doubles, so config ids and run results cross
/// the wire without any text formatting or parsing. Doubles travel as
/// bit patterns: the binary twin of JsonWriter::value_exact, so the
/// determinism contract (remote trajectory byte-identical to solo)
/// holds under either encoding. Session specs and snapshots remain JSON
/// documents carried as length-prefixed bytes — they cross once per
/// session and their JSON codecs are the pinned ones.
///
/// Decoding throws std::runtime_error on anything malformed (unknown
/// tag, truncated varint/double/bytes, over-long varint, non-0/1 bool,
/// trailing bytes after a complete message); the server maps that to a
/// fatal "bad_message" error, exactly like a JSON parse failure.
///
/// The `*_wire` helpers dispatch on WireEncoding so the server's loop
/// threads and the client encode each message in whatever the
/// connection negotiated without branching at every call site.

#include <cstdint>
#include <string>

#include "core/types.hpp"
#include "net/protocol.hpp"
#include "service/session_spec.hpp"

namespace lynceus::net {

// --- Binary parsers (counterparts of parse_request / parse_server_message).

[[nodiscard]] Request parse_binary_request(const std::string& payload);
[[nodiscard]] ServerMessage parse_binary_server_message(
    const std::string& payload);

// --- Binary encoders (payloads; wrap with encode_frame before writing).

[[nodiscard]] std::string binary_encode_open(std::uint64_t req,
                                             const service::SessionSpec& spec);
[[nodiscard]] std::string binary_encode_restore(
    std::uint64_t req, const service::SessionSpec& spec,
    const std::string& snapshot);
[[nodiscard]] std::string binary_encode_tell(std::uint64_t req,
                                             std::uint64_t session,
                                             core::ConfigId config,
                                             const core::RunResult& result);
[[nodiscard]] std::string binary_encode_next_runs(std::uint64_t req);
[[nodiscard]] std::string binary_encode_snapshot_request(std::uint64_t req,
                                                         std::uint64_t session);
[[nodiscard]] std::string binary_encode_result_request(std::uint64_t req,
                                                       std::uint64_t session);
[[nodiscard]] std::string binary_encode_close(std::uint64_t req,
                                              std::uint64_t session);

[[nodiscard]] std::string binary_encode_opened(std::uint64_t req,
                                               std::uint64_t session);
[[nodiscard]] std::string binary_encode_told(std::uint64_t req,
                                             std::uint64_t session,
                                             bool finished, bool quarantined,
                                             const std::string& stop_reason);
/// `run.session` must already hold the wire (global) session id.
[[nodiscard]] std::string binary_encode_run(const service::PendingRun& run);
[[nodiscard]] std::string binary_encode_snapshot_reply(std::uint64_t req,
                                                       std::uint64_t session,
                                                       const std::string& data);
[[nodiscard]] std::string binary_encode_result_reply(
    std::uint64_t req, std::uint64_t session, bool finished, bool quarantined,
    const std::string& stop_reason, const core::OptimizerResult& result);
[[nodiscard]] std::string binary_encode_closed(std::uint64_t req,
                                               std::uint64_t session);
[[nodiscard]] std::string binary_encode_error(std::uint64_t req,
                                              const std::string& code,
                                              const std::string& message,
                                              bool fatal);

// --- Encoding-dispatching helpers (JSON or binary per the connection).

[[nodiscard]] Request parse_request_wire(WireEncoding e,
                                         const std::string& payload);
[[nodiscard]] ServerMessage parse_server_message_wire(
    WireEncoding e, const std::string& payload);

[[nodiscard]] std::string encode_open_wire(WireEncoding e, std::uint64_t req,
                                           const service::SessionSpec& spec);
[[nodiscard]] std::string encode_restore_wire(WireEncoding e, std::uint64_t req,
                                              const service::SessionSpec& spec,
                                              const std::string& snapshot);
[[nodiscard]] std::string encode_tell_wire(WireEncoding e, std::uint64_t req,
                                           std::uint64_t session,
                                           core::ConfigId config,
                                           const core::RunResult& result);
[[nodiscard]] std::string encode_next_runs_wire(WireEncoding e,
                                                std::uint64_t req);
[[nodiscard]] std::string encode_snapshot_request_wire(WireEncoding e,
                                                       std::uint64_t req,
                                                       std::uint64_t session);
[[nodiscard]] std::string encode_result_request_wire(WireEncoding e,
                                                     std::uint64_t req,
                                                     std::uint64_t session);
[[nodiscard]] std::string encode_close_wire(WireEncoding e, std::uint64_t req,
                                            std::uint64_t session);

[[nodiscard]] std::string encode_opened_wire(WireEncoding e, std::uint64_t req,
                                             std::uint64_t session);
[[nodiscard]] std::string encode_told_wire(WireEncoding e, std::uint64_t req,
                                           std::uint64_t session, bool finished,
                                           bool quarantined,
                                           const std::string& stop_reason);
[[nodiscard]] std::string encode_run_wire(WireEncoding e,
                                          const service::PendingRun& run);
[[nodiscard]] std::string encode_snapshot_reply_wire(WireEncoding e,
                                                     std::uint64_t req,
                                                     std::uint64_t session,
                                                     const std::string& data);
[[nodiscard]] std::string encode_result_reply_wire(
    WireEncoding e, std::uint64_t req, std::uint64_t session, bool finished,
    bool quarantined, const std::string& stop_reason,
    const core::OptimizerResult& result);
[[nodiscard]] std::string encode_closed_wire(WireEncoding e, std::uint64_t req,
                                             std::uint64_t session);
[[nodiscard]] std::string encode_error_wire(WireEncoding e, std::uint64_t req,
                                            const std::string& code,
                                            const std::string& message,
                                            bool fatal);

}  // namespace lynceus::net
