// Deterministic state machine interface for replication.
//
// The paper's opening argument for consensus is its equivalence to state
// machine replication [Schneider '90, cited as 23]. This module is the
// application-facing half of that equivalence: implement a deterministic
// `StateMachine`, hand its factory to a `ShardedService` (G = 1 for one
// group), and the RITAS atomic broadcast keeps every correct replica's
// state identical — even with f Byzantine replicas in the group.
#pragma once

#include "common/bytes.h"

namespace ritas::smr {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Applies one command and returns its result. MUST be deterministic:
  /// equal state + equal command => equal new state + equal result, on
  /// every replica. No clocks, no randomness, no I/O.
  virtual Bytes apply(ByteView command) = 0;

  /// Canonical serialization of the current state; replicas compare these
  /// to audit consistency (tests do; production systems would checkpoint).
  virtual Bytes snapshot() const = 0;
};

}  // namespace ritas::smr
