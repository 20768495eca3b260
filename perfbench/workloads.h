// The benchmark's three worlds, modelled on the paper's applications.
//
//   lm-small       WikiText2-like LM table served in-process, AES-128 PRF.
//   taobao-large   Taobao-like 2^18-row table served in-process, ChaCha20.
//   sharded-fleet  the lm-small world behind two loopback PirServerNode
//                  shards and a planning-only ShardedRouter.
//
// The seed reaches the program only through generated inputs: the dataset
// (hence the access statistics the co-design layout is built from), the
// embedding weights and the order of the wanted lists.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/service.h"
#include "src/ml/embedding.h"
#include "src/net/server_node.h"
#include "src/net/sharded_router.h"
#include "src/workloads/dataset.h"

namespace perfbench {

struct WorkloadInfo {
    const char* name;
    // Served through a ShardedRouter over loopback nodes.
    bool sharded;
    // Fixed open-loop offered rate, about half the closed-loop throughput
    // measured on the reference host (README.md). Never derived at run
    // time, so a faster or slower build is offered the same load.
    double open_rate_per_s;
    // Lookups replayed layer by layer in the traced run.
    std::size_t replay_lookups;
};

// nullptr for an unknown name.
const WorkloadInfo* FindWorkload(const std::string& name);
const std::vector<WorkloadInfo>& AllWorkloads();

// Shards of the sharded-fleet world (one replica each); the traced replay
// partitions rows the same way for every workload.
constexpr std::size_t kFleetShards = 2;

// Generated inputs of one workload for one seed.
struct Inputs {
    std::unique_ptr<gpudpf::EmbeddingTable> emb;
    // Training split, from which setup derives the access statistics.
    gpudpf::LmDataset lm;
    gpudpf::RecDataset rec;
    // Test-split lookups (LM contexts or interaction histories), shuffled.
    std::vector<std::vector<std::uint64_t>> wanted;
};
Inputs MakeInputs(const WorkloadInfo& workload, std::uint64_t seed);

// The service configuration of the workload. `q_hot` overrides the hot
// table's query budget when nonzero (the known-fault geometry).
gpudpf::ServiceConfig ConfigFor(const WorkloadInfo& workload,
                                std::uint64_t seed, std::uint64_t q_hot = 0);

// A served world. For in-process workloads `service` answers lookups; for
// the fleet it is the router's planning-only twin and the nodes' services
// answer. Members are destroyed router first, services last.
struct World {
    gpudpf::AccessStats stats;
    std::unique_ptr<gpudpf::PrivateEmbeddingService> service;
    std::vector<std::unique_ptr<gpudpf::PrivateEmbeddingService>>
        node_services;
    std::vector<std::unique_ptr<gpudpf::net::PirServerNode>> nodes;
    std::unique_ptr<gpudpf::net::ShardedRouter> router;
};

// Builds the serving system from the inputs: access statistics, services,
// and for the fleet the nodes, the router and its shard handshakes, so a
// lookup can be sent as soon as it returns.
std::unique_ptr<World> BuildWorld(const WorkloadInfo& workload,
                                  const Inputs& inputs,
                                  const gpudpf::ServiceConfig& config);

// Starts kFleetShards loopback nodes, node k answering from
// `answering[k % answering.size()]`, and a router over them whose client
// side is `planning`. Health-checks every shard before returning.
void StartFleet(const std::vector<gpudpf::PrivateEmbeddingService*>& answering,
                gpudpf::PrivateEmbeddingService* planning,
                std::vector<std::unique_ptr<gpudpf::net::PirServerNode>>* nodes,
                std::unique_ptr<gpudpf::net::ShardedRouter>* router);

// Hands out the shuffled wanted lists round-robin. Thread-safe.
class WantedSource {
  public:
    explicit WantedSource(const std::vector<std::vector<std::uint64_t>>* lists)
        : lists_(lists) {}
    const std::vector<std::uint64_t>& Next() {
        return (*lists_)[next_.fetch_add(1) % lists_->size()];
    }

  private:
    const std::vector<std::vector<std::uint64_t>>* lists_;
    std::atomic<std::size_t> next_{0};
};

}  // namespace perfbench
