#pragma once

/// \file tuning_client.hpp
/// Blocking driver-side client for the network tuning service: one TCP
/// connection, any number of sessions. `net::TuningClient` owns the
/// socket, frames/unframes protocol messages, and buffers server-pushed
/// `run` frames that arrive while a request/reply round trip is in
/// flight (the server pushes runs unprompted after open and tell).
///
/// The client is intentionally synchronous — the remote driver's job is
/// "execute the run the server asked for, tell the result back", which
/// is a loop, not an event system. drain() implements that loop against
/// an eval::AsyncTableRunner for replayed datasets; real cluster drivers
/// use take_run()/tell() directly. Not thread-safe: one client per
/// driver thread (all sessions of one client live on the server loop
/// that owns its connection).
///
/// Any server `error` frame surfaces as a thrown ProtocolError carrying
/// the typed code; since all current server errors are fatal, the
/// connection is unusable afterwards. A server that hangs up mid-read
/// raises SocketError.
///
/// By default the constructor negotiates the compact binary frame body
/// (the hello handshake of net/protocol.hpp) and falls back to JSON
/// against servers that only speak JSON. WireMode::kJson skips the
/// handshake entirely (legacy behavior); WireMode::kBinary offers only
/// binary, so a JSON-only server rejects the connection with a typed
/// "bad_negotiation" ProtocolError instead of a silent disconnect.
/// Negotiation never moves a trajectory byte — both encodings carry
/// doubles bit-exactly.

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "core/types.hpp"
#include "eval/runner.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/session_spec.hpp"

namespace lynceus::net {

/// A typed `error` frame from the server.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(code + ": " + message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

class TuningClient {
 public:
  /// How the constructor settles the frame-body encoding.
  enum class WireMode {
    /// No hello handshake; plain JSON frames (legacy servers).
    kJson,
    /// Offer binary then JSON; accept whatever the server picks.
    kNegotiate,
    /// Offer only binary; a server that cannot (or will not) speak it
    /// rejects with a "bad_negotiation" ProtocolError.
    kBinary,
  };

  struct TellStatus {
    bool finished = false;
    bool quarantined = false;
    std::string stop_reason;
  };

  struct ResultReply {
    core::OptimizerResult result;
    bool finished = false;
    bool quarantined = false;
    std::string stop_reason;
  };

  TuningClient(const std::string& host, std::uint16_t port,
               std::size_t max_frame_bytes = kDefaultMaxFrameBytes,
               WireMode wire = WireMode::kNegotiate);

  /// The encoding the connection settled on (kJson until/unless the
  /// handshake picked binary).
  [[nodiscard]] WireEncoding encoding() const noexcept { return enc_; }

  /// Opens a session; returns its wire (server-global) id. The spec must
  /// carry a `problem_ref` the server can resolve (an in-process
  /// `problem` pointer never crosses the wire).
  std::uint64_t open(const service::SessionSpec& spec);

  /// Reopens a snapshot under a fresh id (and nudges the server to
  /// re-push the restored session's outstanding runs).
  std::uint64_t restore(const service::SessionSpec& spec,
                        const std::string& snapshot);

  /// Reports one completed run; blocks for the `told` reply.
  TellStatus tell(std::uint64_t session, core::ConfigId config,
                  const core::RunResult& result);

  /// The session's snapshot_session() envelope.
  std::string snapshot(std::uint64_t session);

  ResultReply result(std::uint64_t session);

  void close_session(std::uint64_t session);

  /// Pops a buffered server-pushed run if one is available; when
  /// `wait`, blocks reading the socket until one arrives.
  std::optional<service::PendingRun> take_run(bool wait = false);

  /// Drives every open session of this client to completion against a
  /// replayed dataset: submit pushed runs to `runner`, tell completions
  /// back, repeat. Returns when every session is finished / quarantined /
  /// closed — or, mirroring service::drain(), when only forever-hung runs
  /// remain in flight (those sessions stay unfinished).
  void drain(eval::AsyncTableRunner& runner);

  /// Sessions opened on this client and not yet terminal.
  [[nodiscard]] const std::set<std::uint64_t>& active_sessions() const
      noexcept {
    return active_;
  }

  // --- Low-level escape hatches (protocol hardening tests) ---

  /// Writes raw bytes, bypassing framing entirely.
  void send_raw(const std::string& bytes);
  /// Blocking read of the next server message (pushed runs included — not
  /// buffered). Throws SocketError when the server closes the connection.
  ServerMessage read_message();
  /// True once recv() reported EOF (server closed the connection).
  [[nodiscard]] bool server_closed() const noexcept { return eof_; }

 private:
  /// Sends one framed payload.
  void send_payload(const std::string& payload);
  /// Reads messages (buffering pushed runs) until a non-`run` message
  /// carrying `req` arrives; throws ProtocolError on an `error` frame.
  ServerMessage await_reply(std::uint64_t req);

  Socket sock_;
  FrameAssembler frames_;
  WireEncoding enc_ = WireEncoding::kJson;
  std::uint64_t next_req_ = 1;
  std::deque<service::PendingRun> runs_;
  std::set<std::uint64_t> active_;
  bool eof_ = false;
};

}  // namespace lynceus::net
