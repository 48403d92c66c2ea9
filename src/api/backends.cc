// The three StoreBackend adapters: each maps its deployment's client API
// onto the deployment-neutral asynchronous interface of backend.h.

#include "api/backend.h"

#include <memory>
#include <string>

#include "baselines/baseline_deployment.h"
#include "core/deployment.h"

namespace wedge {

namespace {

GetResult FromVerified(const VerifiedGet& v, SimTime at) {
  GetResult r;
  r.found = v.found;
  r.value = v.value;
  r.version = v.version;
  r.phase2 = v.phase2;
  r.verified = true;
  r.at = at;
  return r;
}

ScanResult FromVerifiedScan(const VerifiedScan& v, SimTime at) {
  ScanResult r;
  r.pairs = v.pairs;
  r.phase2 = v.phase2;
  r.verified = true;
  r.at = at;
  return r;
}

/// Both baselines certify synchronously: their single commit point fires
/// Phase I and Phase II together, with the real block id in both acks.
StoreBackend::CommitCb CollapsePhases(StoreBackend::CommitCb on_phase1,
                                      StoreBackend::CommitCb on_phase2) {
  return [p1 = std::move(on_phase1),
          p2 = std::move(on_phase2)](const Status& s, BlockId bid, SimTime t) {
    if (p1) p1(s, bid, t);
    if (p2) p2(s, bid, t);
  };
}

BlockRead FromBlock(const Block& b, SimTime at) {
  BlockRead r;
  r.block = b;
  r.phase2 = true;  // both baselines deliver only certified/final blocks
  r.at = at;
  return r;
}

// ------------------------------------------------------------- WedgeChain

class WedgeBackend : public StoreBackend {
 public:
  explicit WedgeBackend(const StoreOptions& options) : d_(options.deploy) {}

  BackendKind kind() const override { return BackendKind::kWedge; }
  void Start() override { d_.Start(); }
  Runtime& runtime() override { return d_.runtime(); }
  Simulation& sim() override { return d_.sim(); }
  SimNetwork& net() override { return d_.net(); }
  Deployment* wedge() override { return &d_; }

  // Every operation enters through Client::Invoke — the hop that puts
  // the call on the client's own executor (inline under the simulator,
  // posted to its worker under threads), so the client's state is only
  // ever touched from its serialized executor. Captures are by value:
  // the caller's stack is gone by the time a posted closure runs.

  void PutBatch(size_t client, const std::vector<std::pair<Key, Bytes>>& kvs,
                CommitCb on_phase1, CommitCb on_phase2) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, kvs, p1 = std::move(on_phase1),
              p2 = std::move(on_phase2)]() mutable {
      c.PutBatch(kvs, std::move(p1), std::move(p2));
    });
  }

  void Append(size_t client, std::vector<Bytes> payloads, CommitCb on_phase1,
              CommitCb on_phase2) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, payloads = std::move(payloads), p1 = std::move(on_phase1),
              p2 = std::move(on_phase2)]() mutable {
      c.AddBatch(std::move(payloads), std::move(p1), std::move(p2));
    });
  }

  void Get(size_t client, Key key, GetCb cb) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, key, cb = std::move(cb)] {
      c.Get(key, [cb](const Status& s, const VerifiedGet& v, SimTime t) {
        cb(s, FromVerified(v, t), t);
      });
    });
  }

  bool EdgeReachable(size_t client) override {
    WedgeClient& c = d_.client(client);
    FaultPlane& f = d_.runtime().faults();
    return !f.IsCrashed(c.edge()) && !f.IsUnreachable(c.id(), c.edge());
  }

  void CloudGet(size_t client, Key key, GetCb cb) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, key, cb = std::move(cb)] {
      c.GetFromCloud(key,
                     [cb](const Status& s, const VerifiedGet& v, SimTime t) {
                       GetResult r = FromVerified(v, t);
                       // A backup miss is not proof of absence — the
                       // backup may lag the edge — so only a hit reports
                       // as verified.
                       r.verified = v.found;
                       cb(s, std::move(r), t);
                     });
    });
  }

  void Scan(size_t client, Key lo, Key hi, ScanCb cb) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, lo, hi, cb = std::move(cb)] {
      c.Scan(lo, hi,
             [cb](const Status& s, const VerifiedScan& v, SimTime t) {
               cb(s, FromVerifiedScan(v, t), t);
             });
    });
  }

  void ReadBlock(size_t client, BlockId bid, ReadBlockCb cb) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, bid, cb = std::move(cb)] {
      c.ReadBlock(bid, [cb](const Status& s, const Block& b, bool phase2,
                            SimTime t) {
        BlockRead r;
        r.block = b;
        r.phase2 = phase2;
        r.at = t;
        cb(s, std::move(r), t);
      });
    });
  }

  // The verifier cache is client-owned, single-threaded state: these
  // maintenance hops ride the same Invoke marshaling as the data ops,
  // so an epoch install running on the control worker never races a
  // verification in flight on the client's executor.
  void ResizeVerifierCache(size_t client,
                           const VerifierCache::Limits& limits) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, limits] { c.ResizeVerifierCache(limits); });
  }
  void InvalidateVerifierRange(size_t client, Key lo, Key hi) override {
    WedgeClient& c = d_.client(client);
    c.Invoke([&c, lo, hi] { c.InvalidateVerifierRange(lo, hi); });
  }

 private:
  Deployment d_;
};

// ---------------------------------------------------------- edge-baseline

class EdgeBaselineBackend : public StoreBackend {
 public:
  explicit EdgeBaselineBackend(const StoreOptions& options)
      : d_(options.deploy) {}

  BackendKind kind() const override { return BackendKind::kEdgeBaseline; }
  void Start() override { d_.Start(); }
  Runtime& runtime() override { return d_.runtime(); }
  Simulation& sim() override { return d_.sim(); }
  SimNetwork& net() override { return d_.net(); }
  EdgeBaselineDeployment* edge_baseline() override { return &d_; }

  void PutBatch(size_t client, const std::vector<std::pair<Key, Bytes>>& kvs,
                CommitCb on_phase1, CommitCb on_phase2) override {
    EbClient& c = d_.client(client);
    c.Invoke([&c, kvs,
              cb = CollapsePhases(std::move(on_phase1),
                                  std::move(on_phase2))]() mutable {
      c.WriteBatch(kvs, std::move(cb));
    });
  }

  void Append(size_t client, std::vector<Bytes> payloads, CommitCb on_phase1,
              CommitCb on_phase2) override {
    EbClient& c = d_.client(client);
    c.Invoke([&c, payloads = std::move(payloads),
              cb = CollapsePhases(std::move(on_phase1),
                                  std::move(on_phase2))]() mutable {
      c.AppendBatch(std::move(payloads), std::move(cb));
    });
  }

  void Get(size_t client, Key key, GetCb cb) override {
    EbClient& c = d_.client(client);
    c.Invoke([&c, key, cb = std::move(cb)] {
      c.Get(key, [cb](const Status& s, const VerifiedGet& v, SimTime t) {
        cb(s, FromVerified(v, t), t);
      });
    });
  }

  void Scan(size_t client, Key lo, Key hi, ScanCb cb) override {
    EbClient& c = d_.client(client);
    c.Invoke([&c, lo, hi, cb = std::move(cb)] {
      c.Scan(lo, hi,
             [cb](const Status& s, const VerifiedScan& v, SimTime t) {
               cb(s, FromVerifiedScan(v, t), t);
             });
    });
  }

  void ReadBlock(size_t client, BlockId bid, ReadBlockCb cb) override {
    EbClient& c = d_.client(client);
    c.Invoke([&c, bid, cb = std::move(cb)] {
      c.ReadBlock(bid, [cb](const Status& s, const Block& b, SimTime t) {
        cb(s, FromBlock(b, t), t);
      });
    });
  }

  // Same marshaling rationale as WedgeBackend: the cache lives on the
  // client's serialized executor.
  void ResizeVerifierCache(size_t client,
                           const VerifierCache::Limits& limits) override {
    EbClient& c = d_.client(client);
    c.Invoke([&c, limits] { c.ResizeVerifierCache(limits); });
  }
  void InvalidateVerifierRange(size_t client, Key lo, Key hi) override {
    EbClient& c = d_.client(client);
    c.Invoke([&c, lo, hi] { c.InvalidateVerifierRange(lo, hi); });
  }

 private:
  EdgeBaselineDeployment d_;
};

// ------------------------------------------------------------- cloud-only

class CloudOnlyBackend : public StoreBackend {
 public:
  explicit CloudOnlyBackend(const StoreOptions& options)
      : d_(options.deploy) {}

  BackendKind kind() const override { return BackendKind::kCloudOnly; }
  void Start() override { d_.Start(); }
  Runtime& runtime() override { return d_.runtime(); }
  Simulation& sim() override { return d_.sim(); }
  SimNetwork& net() override { return d_.net(); }
  CloudOnlyDeployment* cloud_only() override { return &d_; }

  void PutBatch(size_t client, const std::vector<std::pair<Key, Bytes>>& kvs,
                CommitCb on_phase1, CommitCb on_phase2) override {
    CloudOnlyClient& c = d_.client(client);
    c.Invoke([&c, kvs,
              cb = CollapsePhases(std::move(on_phase1),
                                  std::move(on_phase2))]() mutable {
      c.WriteBatch(kvs, std::move(cb));
    });
  }

  void Append(size_t client, std::vector<Bytes> payloads, CommitCb on_phase1,
              CommitCb on_phase2) override {
    CloudOnlyClient& c = d_.client(client);
    c.Invoke([&c, payloads = std::move(payloads),
              cb = CollapsePhases(std::move(on_phase1),
                                  std::move(on_phase2))]() mutable {
      c.AppendBatch(std::move(payloads), std::move(cb));
    });
  }

  void ReadBlock(size_t client, BlockId bid, ReadBlockCb cb) override {
    CloudOnlyClient& c = d_.client(client);
    c.Invoke([&c, bid, cb = std::move(cb)] {
      c.ReadBlock(bid, [cb](const Status& s, const Block& b, SimTime t) {
        cb(s, FromBlock(b, t), t);
      });
    });
  }

  void Get(size_t client, Key key, GetCb cb) override {
    CloudOnlyClient& c = d_.client(client);
    c.Invoke([&c, key, cb = std::move(cb)] {
      c.Read(key, [cb](const Status& s, bool found, const Bytes& value,
                       SimTime t) {
        GetResult r;
        r.found = found;
        r.value = value;
        r.phase2 = true;     // the commit was final
        r.verified = false;  // ...but taken on trust (no proofs)
        r.at = t;
        cb(s, std::move(r), t);
      });
    });
  }

  void Scan(size_t client, Key lo, Key hi, ScanCb cb) override {
    CloudOnlyClient& c = d_.client(client);
    c.Invoke([&c, lo, hi, cb = std::move(cb)] {
      c.Scan(lo, hi, [cb](const Status& s, const std::vector<KvPair>& pairs,
                          SimTime t) {
        ScanResult r;
        r.pairs = pairs;
        r.phase2 = true;
        r.verified = false;
        r.at = t;
        cb(s, std::move(r), t);
      });
    });
  }

 private:
  CloudOnlyDeployment d_;
};

}  // namespace

std::string_view BackendKindToString(BackendKind kind) {
  switch (kind) {
    case BackendKind::kWedge:
      return "wedge";
    case BackendKind::kEdgeBaseline:
      return "edge-baseline";
    case BackendKind::kCloudOnly:
      return "cloud-only";
  }
  return "unknown";
}

std::unique_ptr<StoreBackend> MakeBackend(const StoreOptions& options) {
  switch (options.backend) {
    case BackendKind::kWedge:
      return std::make_unique<WedgeBackend>(options);
    case BackendKind::kEdgeBaseline:
      return std::make_unique<EdgeBaselineBackend>(options);
    case BackendKind::kCloudOnly:
      return std::make_unique<CloudOnlyBackend>(options);
  }
  return nullptr;
}

}  // namespace wedge
