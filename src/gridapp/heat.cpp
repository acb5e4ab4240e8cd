#include "gridapp/heat.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "frontend/compile.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace mojave::gridapp {

std::string heat_mojc_source(const HeatConfig& cfg) {
  if (cfg.nodes == 0 || cfg.rows % cfg.nodes != 0) {
    throw Error("heat: rows must divide evenly across nodes");
  }
  if (cfg.rows / cfg.nodes < 1 || cfg.cols < 3) {
    throw Error("heat: grid too small");
  }
  std::ostringstream src;
  src << R"(
extern int node_id();
extern int num_nodes();
extern int msg_send(int, int, ptr, int);
extern int msg_recv(int, int, ptr, int);
extern ptr checkpoint_target();
extern void report_result(float);

/* Halo exchange for one timestep. Rows: 0 is the upper ghost row,
   1..L the interior band, L+1 the lower ghost row. Tags encode the
   direction and timestep so retransmissions after a rollback match
   deterministically. Returns nonzero on MSG_ROLL. */
int exchange(ptr u, int rank, int np, int L, int C, int step) {
  int err = 0;
  int up = rank - 1;
  int down = rank + 1;
  int s = 0;
  if (up >= 0) {
    s = msg_send(up, step * 2, ptr_add(u, C), C);
    if (s != 0) { err = 1; }
  }
  if (down < np) {
    s = msg_send(down, step * 2 + 1, ptr_add(u, L * C), C);
    if (s != 0) { err = 1; }
  }
  if (err == 0 && up >= 0) {
    s = msg_recv(up, step * 2 + 1, u, C);
    if (s != 0) { err = 1; }
  }
  if (err == 0 && down < np) {
    s = msg_recv(down, step * 2, ptr_add(u, (L + 1) * C), C);
    if (s != 0) { err = 1; }
  }
  return err;
}

/* One Jacobi sweep: v = stencil(u) on interior points, then copy back.
   Global-boundary cells hold their fixed temperature. */
void compute(ptr u, ptr v, int rank, int L, int C, int R) {
  int r = 1;
  while (r <= L) {
    int g = rank * L + r - 1;
    int c = 0;
    while (c < C) {
      if (g > 0 && g < R - 1 && c > 0 && c < C - 1) {
        float up1 = readf(u, (r - 1) * C + c);
        float dn = readf(u, (r + 1) * C + c);
        float lf = readf(u, r * C + c - 1);
        float rt = readf(u, r * C + c + 1);
        v[r * C + c] = 0.25 * (up1 + dn + lf + rt);
      } else {
        v[r * C + c] = readf(u, r * C + c);
      }
      c = c + 1;
    }
    r = r + 1;
  }
  r = 1;
  while (r <= L) {
    int c = 0;
    while (c < C) {
      u[r * C + c] = readf(v, r * C + c);
      c = c + 1;
    }
    r = r + 1;
  }
}

int main() {
  int rank = node_id();
  int np = num_nodes();
)";
  src << "  int R = " << cfg.rows << ";\n";
  src << "  int C = " << cfg.cols << ";\n";
  src << "  int steps = " << cfg.steps << ";\n";
  src << "  int interval = " << cfg.checkpoint_interval << ";\n";
  src << R"(
  int L = R / np;

  ptr u = alloc((L + 2) * C);
  ptr v = alloc((L + 2) * C);
  int r = 0;
  while (r < L + 2) {
    int g = rank * L + r - 1;
    int c = 0;
    while (c < C) {
      float val = 0.0;
      if (g >= 0 && g <= R - 1) {
        if (g == 0 || g == R - 1 || c == 0 || c == C - 1) { val = 100.0; }
      }
      u[r * C + c] = val;
      v[r * C + c] = val;
      c = c + 1;
    }
    r = r + 1;
  }
)";
  if (cfg.static_slots > 0) {
    src << "\n  /* Static application state: filled once, never mutated, so\n"
           "     every checkpoint after the first dedupes it away. */\n";
    src << "  int statn = " << cfg.static_slots << ";\n";
    src << R"(  ptr stat = alloc(statn);
  float statv = 1.5;
  int t = 0;
  while (t < statn) {
    stat[t] = statv;
    statv = statv + 0.125;
    t = t + 1;
  }
)";
  }
  src << R"(
  /* The speculative main loop of Figure 2: speculate at the start and
     after every checkpoint; on a failed exchange roll back (retry); at
     each interval commit, then checkpoint through migrate. */
  int step = 1;
  int spec = speculate();
  if (spec <= 0) { spec = spec_level(); }
  while (step <= steps) {
    int err = exchange(u, rank, np, L, C, step);
    if (err != 0) { rollback(spec, 0 - 1); }
    compute(u, v, rank, L, C, R);
    step = step + 1;
    if (interval > 0) {
      if (step % interval == 0) {
        commit(spec);
        migrate(checkpoint_target());
        spec = speculate();
        if (spec <= 0) { spec = spec_level(); }
      }
    }
  }
  commit(spec);

  float sum = 0.0;
  r = 1;
  while (r <= L) {
    int c = 0;
    while (c < C) {
      sum = sum + readf(u, r * C + c);
      c = c + 1;
    }
    r = r + 1;
  }
  report_result(sum);
)";
  if (cfg.static_slots > 0) {
    src << "  /* Never taken (step > steps here): keeps the static table\n"
           "     live through the optimizer and in every checkpoint. */\n"
           "  if (step < 0) { report_result(readf(stat, 0)); }\n";
  }
  src << R"(  return 0;
}
)";
  return src.str();
}

fir::Program heat_program(const HeatConfig& cfg) {
  return frontend::compile_source("heat", heat_mojc_source(cfg));
}

std::vector<double> heat_reference_sums(const HeatConfig& cfg) {
  const std::uint32_t R = cfg.rows;
  const std::uint32_t C = cfg.cols;
  std::vector<double> u(static_cast<std::size_t>(R) * C, 0.0);
  std::vector<double> v(u.size(), 0.0);
  const auto at = [C](std::vector<double>& g, std::uint32_t r,
                      std::uint32_t c) -> double& {
    return g[static_cast<std::size_t>(r) * C + c];
  };
  for (std::uint32_t r = 0; r < R; ++r) {
    for (std::uint32_t c = 0; c < C; ++c) {
      const double val =
          (r == 0 || r == R - 1 || c == 0 || c == C - 1) ? 100.0 : 0.0;
      at(u, r, c) = val;
      at(v, r, c) = val;
    }
  }
  for (std::uint32_t s = 0; s < cfg.steps; ++s) {
    for (std::uint32_t r = 1; r + 1 < R; ++r) {
      for (std::uint32_t c = 1; c + 1 < C; ++c) {
        // Same association order as the generated program.
        at(v, r, c) = 0.25 * (at(u, r - 1, c) + at(u, r + 1, c) +
                              at(u, r, c - 1) + at(u, r, c + 1));
      }
    }
    u = v;
  }
  const std::uint32_t L = R / cfg.nodes;
  std::vector<double> sums(cfg.nodes, 0.0);
  for (std::uint32_t rank = 0; rank < cfg.nodes; ++rank) {
    double sum = 0.0;
    for (std::uint32_t r = rank * L; r < (rank + 1) * L; ++r) {
      for (std::uint32_t c = 0; c < C; ++c) {
        sum += at(u, r, c);
      }
    }
    sums[rank] = sum;
  }
  return sums;
}

LocalCluster::LocalCluster(std::uint32_t ranks,
                           const std::optional<net::WireFaults>& wire_faults)
    : root_("mojave_grid_"),
      store_(ckpt::CheckpointStore::open_shared(root_.path())) {
  dnode::AgentConfig acfg;
  acfg.storage_root = root_.path();
  dnode::CoordinatorConfig ccfg;
  for (std::uint32_t a = 0; a < ranks; ++a) {
    agents_.push_back(std::make_unique<dnode::NodeAgent>(acfg));
    std::uint16_t port = agents_.back()->port();
    if (wire_faults.has_value()) {
      net::WireFaults faults = *wire_faults;
      faults.seed += a;  // one schedule per link, all from the one seed
      proxies_.push_back(
          std::make_unique<net::WireChaosProxy>("127.0.0.1", port, faults));
      port = proxies_.back()->port();
    }
    ccfg.agents.push_back({"127.0.0.1", port});
  }
  stopped_.assign(ranks, false);
  ccfg.num_ranks = ranks;
  coord_ = std::make_unique<dnode::Coordinator>(std::move(ccfg));
}

LocalCluster::~LocalCluster() {
  // Stop the agents before the coordinator closes their control
  // connections, which they would otherwise hold their ranks through.
  // Their last checkpoints land first, as a `mojc node` agent's do.
  coord_->shutdown_agents();
  for (auto& agent : agents_) {
    agent->drain_checkpoints();
    agent->stop();
  }
  for (auto& proxy : proxies_) proxy->stop();
}

bool LocalCluster::kill_host_of(std::uint32_t rank) {
  const std::uint32_t agent = coord_->agent_of(rank);
  if (agent >= agents_.size() || stopped_[agent]) return false;
  if (std::count(stopped_.begin(), stopped_.end(), false) == 1) return false;
  stopped_[agent] = true;
  agents_[agent]->stop();
  return true;
}

bool LocalCluster::has_checkpoint(std::uint32_t rank) const {
  return store_->has_snapshot(snapshot_name(rank));
}

std::uint64_t LocalCluster::latest_seq(std::uint32_t rank) const {
  return store_->latest_seq(snapshot_name(rank));
}

net::WireStats LocalCluster::wire_stats() const {
  net::WireStats sum;
  for (const auto& proxy : proxies_) {
    const net::WireStats s = proxy->stats();
    sum.connections += s.connections;
    sum.bytes_forwarded += s.bytes_forwarded;
    sum.split_writes += s.split_writes;
    sum.resets += s.resets;
    sum.frames_reordered += s.frames_reordered;
    sum.frames_dropped += s.frames_dropped;
    sum.throttle_waits += s.throttle_waits;
  }
  return sum;
}

SpmdRun run_spmd(const fir::Program& program, std::uint32_t ranks,
                 const std::optional<net::WireFaults>& wire_faults,
                 const std::function<void(LocalCluster&)>& chaos) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& insns = reg.counter("vm.instructions");
  obs::Counter& packed = reg.counter("migrate.images_packed");
  obs::Counter& packed_bytes = reg.counter("migrate.image_bytes_packed");
  obs::Histogram& pack_us = reg.histogram("migrate.pack_us");
  obs::Counter& written = reg.counter("ckpt.bytes_written");
  obs::Counter& poisons = reg.counter("dspec.poisons_received");
  const std::uint64_t insns0 = insns.value();
  const std::uint64_t poisons0 = poisons.value();
  const std::uint64_t packed0 = packed.value();
  const std::uint64_t packed_bytes0 = packed_bytes.value();
  const double pack_us0 = pack_us.snapshot().sum_us;
  const std::uint64_t written0 = written.value();

  SpmdRun run;
  {
    LocalCluster cluster(ranks, wire_faults);
    dnode::Coordinator& coord = cluster.coordinator();
    coord.launch_spmd(program);
    if (chaos) chaos(cluster);
    run.finished = coord.wait_all(120.0);
    run.ranks = coord.results();
    run.resurrections = coord.resurrections();
    run.wire = cluster.wire_stats();
  }
  run.all_clean = run.finished;
  for (const dnode::RankOutcome& r : run.ranks) {
    if (r.result_kind != 0 || r.exit_code != 0) run.all_clean = false;
  }
  run.instructions = insns.value() - insns0;
  run.checkpoints = packed.value() - packed0;
  run.image_bytes = packed_bytes.value() - packed_bytes0;
  run.checkpoint_seconds = (pack_us.snapshot().sum_us - pack_us0) * 1e-6;
  run.bytes_written = written.value() - written0;
  run.poisons_issued = poisons.value() - poisons0;
  return run;
}

HeatRun run_heat(const HeatConfig& cfg,
                 const std::optional<net::WireFaults>& wire_faults,
                 const std::function<void(LocalCluster&)>& chaos) {
  HeatRun run{run_spmd(heat_program(cfg), cfg.nodes, wire_faults, chaos),
              {}};
  run.sums.assign(cfg.nodes, std::numeric_limits<double>::quiet_NaN());
  for (const dnode::RankOutcome& r : run.ranks) {
    if (r.has_reported) run.sums[r.rank] = r.reported;
  }
  return run;
}

}  // namespace mojave::gridapp
