// The fault-injection seam every substrate passes through.
//
// Real BigLake runs on flaky substrates: object stores throttle and return
// transient 503s, cross-cloud VPN links drop, metadata refreshes race. The
// simulator reproduces that by letting a FaultHook veto any instrumented
// call site. Substrates stay ignorant of fault *plans* — they only ask "does
// a fault fire here?" via CheckFault. The concrete injector (bl_fault's
// FaultInjector, which owns plans, seeds and per-key call indices) lives in
// src/fault/ and is installed on the SimEnv; production-shaped code paths
// with no hook installed pay a single null check.
//
// Determinism contract: a hook's OnCall decision must be a pure function of
// (site, cloud, key, the hook's own per-(site,key) call index) — never of
// wall time, thread identity or global call interleaving. Each object/stream
// key is touched by exactly one task in a parallel region, so per-key call
// sequences are single-threaded and the decision stream is identical at any
// worker count.

#ifndef BIGLAKE_COMMON_FAULT_HOOK_H_
#define BIGLAKE_COMMON_FAULT_HOOK_H_

#include <string>

#include "common/status.h"

namespace biglake {

using SimMicros = uint64_t;
class SimEnv;

/// Every instrumented call site. Object-store verbs are split so plans can
/// target e.g. only conditional puts (CAS) without touching reads.
enum class FaultSite {
  kObjGet = 0,    // Get / GetRange
  kObjPut,        // unconditional Put
  kObjCas,        // Put with if_generation_match (snapshot-pointer CAS)
  kObjList,       // List / ListAll
  kObjStat,       // Stat
  kObjDelete,     // Delete
  kMetaRefresh,   // metadata-cache refresh of one table
  kReadRows,      // Read API: one stream read attempt
  kWriteCommit,   // Write API: stream flush / batch commit
  kVpnTransfer,   // Omni: one cross-realm VPN transfer
  kTxnIntent,     // txn coordinator: one write-intent manifest put
  kTxnLog,        // txn coordinator: create-only put of one log record
  kNumFaultSites,
};

/// Stable lowercase name ("obj_put", "vpn_transfer", ...) used in counters,
/// metric labels and span names.
const char* FaultSiteName(FaultSite site);

/// What the hook decided for one call.
struct FaultOutcome {
  Status status;                 // OK = no fault (latency may still apply)
  SimMicros extra_latency = 0;   // charged to the sim clock either way
};

/// Interface the simulator calls at each instrumented site. Implementations
/// must be safe to call concurrently from pool workers.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  virtual FaultOutcome OnCall(FaultSite site, const char* cloud,
                              const std::string& key) = 0;
};

/// Consults the environment's hook (if any) at an instrumented site.
/// On injection: charges `extra_latency` plus `burn_latency` to the sim
/// clock (a failed call still costs its wire time), bumps the sim counter
/// "fault.injected.<site>" and returns the injected status. On a clean pass
/// with extra latency, charges only the latency and returns OK (the caller
/// then charges its normal costs itself). Defined in sim_env.h's ecosystem
/// via the out-of-line helper below to keep this header Status-only.
Status CheckFault(SimEnv* env, FaultSite site, const char* cloud,
                  const std::string& key, SimMicros burn_latency = 0);

}  // namespace biglake

#endif  // BIGLAKE_COMMON_FAULT_HOOK_H_
