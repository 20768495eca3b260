#include "workloads.h"

#include <stdexcept>
#include <utility>

#include "src/common/rng.h"

namespace perfbench {

using gpudpf::PrivateEmbeddingService;
using gpudpf::ServiceConfig;

const std::vector<WorkloadInfo>& AllWorkloads() {
    static const std::vector<WorkloadInfo> workloads = {
        {"lm-small", false, 1400.0, 64},
        {"taobao-large", false, 14.0, 16},
        {"sharded-fleet", true, 1000.0, 64},
    };
    return workloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
    for (const WorkloadInfo& w : AllWorkloads()) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

namespace {

bool IsTaobao(const WorkloadInfo& workload) {
    return std::string(workload.name) == "taobao-large";
}

// Mixes the workload seed into a spec's own seed, so seed 1 is not the
// library's canonical dataset and every seed gives different inputs.
std::uint64_t MixSeed(std::uint64_t base, std::uint64_t seed) {
    return base * 0x9e3779b97f4a7c15ull + seed * 0xbf58476d1ce4e5b9ull + 1;
}

}  // namespace

Inputs MakeInputs(const WorkloadInfo& workload, std::uint64_t seed) {
    Inputs inputs;
    gpudpf::Rng order(MixSeed(7, seed));
    int dim = 0;
    std::uint64_t vocab = 0;
    if (IsTaobao(workload)) {
        gpudpf::RecWorkloadSpec spec = gpudpf::TaobaoLikeSpec();
        spec.seed = MixSeed(spec.seed, seed);
        inputs.rec = gpudpf::GenerateRecDataset(spec);
        for (const auto& sample : inputs.rec.test) {
            inputs.wanted.push_back(sample.history);
        }
        dim = spec.dim;
        vocab = spec.vocab;
    } else {
        gpudpf::LmWorkloadSpec spec = gpudpf::WikiText2LikeSpec();
        spec.seed = MixSeed(spec.seed, seed);
        inputs.lm = gpudpf::GenerateLmDataset(spec);
        for (const auto& sample : inputs.lm.test) {
            inputs.wanted.push_back(sample.context);
        }
        dim = spec.dim;
        vocab = spec.vocab;
    }
    // Fisher-Yates, so lookups do not follow the generator's order.
    for (std::size_t i = inputs.wanted.size(); i > 1; --i) {
        std::swap(inputs.wanted[i - 1], inputs.wanted[order.UniformInt(i)]);
    }
    inputs.emb = std::make_unique<gpudpf::EmbeddingTable>(vocab, dim);
    gpudpf::Rng weights(MixSeed(9, seed));
    inputs.emb->InitRandom(weights, 0.1f);
    return inputs;
}

ServiceConfig ConfigFor(const WorkloadInfo& workload, std::uint64_t seed,
                        std::uint64_t q_hot) {
    ServiceConfig config;
    config.client_seed = MixSeed(11, seed);
    // Room for the open loop's backlog: a full queue would reject lookups
    // the schedule still counts.
    config.max_inflight_requests = 1024;
    if (IsTaobao(workload)) {
        config.prf = gpudpf::PrfKind::kChacha20;
        config.codesign.hot_size = 4096;
        config.codesign.q_hot = 4;
        config.codesign.colocate_c = 3;
        config.codesign.q_full = 4;
    } else {
        config.prf = gpudpf::PrfKind::kAes128;
        config.codesign.hot_size = 256;
        config.codesign.q_hot = 16;
        config.codesign.colocate_c = 4;
        config.codesign.q_full = 4;
    }
    if (q_hot != 0) config.codesign.q_hot = q_hot;
    return config;
}

void StartFleet(const std::vector<PrivateEmbeddingService*>& answering,
                PrivateEmbeddingService* planning,
                std::vector<std::unique_ptr<gpudpf::net::PirServerNode>>* nodes,
                std::unique_ptr<gpudpf::net::ShardedRouter>* router) {
    std::vector<std::vector<gpudpf::net::ShardedRouter::Endpoint>> shards;
    for (std::size_t k = 0; k < kFleetShards; ++k) {
        nodes->push_back(std::make_unique<gpudpf::net::PirServerNode>(
            answering[k % answering.size()],
            gpudpf::net::PirServerNode::Options{}));
        gpudpf::net::ShardedRouter::Endpoint endpoint;
        endpoint.port = nodes->back()->port();
        shards.push_back({endpoint});
    }
    *router = std::make_unique<gpudpf::net::ShardedRouter>(
        planning, shards, gpudpf::net::ShardedRouter::Options{});
    // Dials and shard-handshakes one pooled connection per node.
    (*router)->CheckNow();
    for (std::size_t k = 0; k < kFleetShards; ++k) {
        if ((*router)->healthy_count(k) == 0) {
            throw std::runtime_error("fleet shard " + std::to_string(k) +
                                     " failed its health check");
        }
    }
}

std::unique_ptr<World> BuildWorld(const WorkloadInfo& workload,
                                  const Inputs& inputs,
                                  const ServiceConfig& config) {
    auto world = std::make_unique<World>();
    const int top_c = config.codesign.colocate_c;
    world->stats = IsTaobao(workload)
                       ? gpudpf::ComputeRecStats(inputs.rec, top_c)
                       : gpudpf::ComputeLmStats(inputs.lm, top_c);
    if (!workload.sharded) {
        world->service = std::make_unique<PrivateEmbeddingService>(
            *inputs.emb, world->stats, config);
        return world;
    }
    std::vector<PrivateEmbeddingService*> answering;
    for (std::size_t k = 0; k < kFleetShards; ++k) {
        world->node_services.push_back(
            std::make_unique<PrivateEmbeddingService>(*inputs.emb,
                                                      world->stats, config));
        answering.push_back(world->node_services.back().get());
    }
    ServiceConfig planning = config;
    planning.planning_only = true;
    world->service = std::make_unique<PrivateEmbeddingService>(
        *inputs.emb, world->stats, planning);
    StartFleet(answering, world->service.get(), &world->nodes,
               &world->router);
    return world;
}

}  // namespace perfbench
