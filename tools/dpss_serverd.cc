// dpss-serverd: the long-running serving daemon. Binds the thread-per-core
// serving layer (src/server/) around any registered backend, optionally
// durable, and runs until SIGTERM/SIGINT triggers a graceful drain (finish
// admitted work, fsync WAL, final checkpoint, flush replies, exit).
//
// Usage:
//   dpss-serverd [--host H] [--port P] [--backend NAME] [--seed S]
//                [--durable-dir DIR] [--io-threads N]
//                [--batch-window-us U] [--max-batch-ops N]
//                [--max-queue-depth N] [--max-inflight-mb N]
//                [--stats-interval-s S] [--port-file PATH]
//                [--replica-of HOST:PORT] [--min-replica-acks N]
//                [--advertise-addr HOST:PORT]
//
// --batch-window-us caps how long a durable server holds a batch that
// contains a mutation so that other connections' mutations share its
// fsync (group commit). Reads and in-memory batches never wait.
//
// --port 0 (the default) binds an ephemeral port; the resolved port is
// printed on stdout as "listening on HOST:PORT" and, with --port-file,
// written to PATH so scripts can find it without parsing stdout.
//
// Replication (docs/REPLICATION.md): --replica-of runs the daemon as a
// read replica mirroring into --durable-dir; SIGUSR1 promotes it to a
// primary (failover). --min-replica-acks makes a durable primary withhold
// mutation acks until that many replicas applied the write.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "server/server.h"

namespace {

dpss::server::Server* g_server = nullptr;

void HandleTermSignal(int) {
  if (g_server != nullptr) g_server->NotifyDrainFromSignal();
}

void HandlePromoteSignal(int) {
  if (g_server != nullptr) g_server->NotifyPromoteFromSignal();
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: dpss-serverd [--host H] [--port P] [--backend NAME]\n"
      "                    [--seed S] [--durable-dir DIR] [--io-threads N]\n"
      "                    [--batch-window-us U] [--max-batch-ops N]\n"
      "                    [--max-queue-depth N] [--max-inflight-mb N]\n"
      "                    [--wal-sync-every N] [--stats-interval-s S]\n"
      "                    [--port-file PATH] [--replica-of HOST:PORT]\n"
      "                    [--min-replica-acks N]\n"
      "                    [--advertise-addr HOST:PORT]\n"
      "--batch-window-us: group-commit linger (default 200) for durable\n"
      "                   batches holding a mutation; others run at once\n");
}

}  // namespace

int main(int argc, char** argv) {
  dpss::server::ServerOptions opts;
  double stats_interval_s = 0;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dpss-serverd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      opts.host = next();
    } else if (arg == "--port") {
      opts.port = std::atoi(next());
    } else if (arg == "--backend") {
      opts.backend = next();
    } else if (arg == "--seed") {
      opts.spec.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--durable-dir") {
      opts.durable_dir = next();
    } else if (arg == "--io-threads") {
      opts.io_threads = std::atoi(next());
    } else if (arg == "--batch-window-us") {
      opts.batch_window_us = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--max-batch-ops") {
      opts.max_batch_ops = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--max-queue-depth") {
      opts.max_queue_depth = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-inflight-mb") {
      opts.max_inflight_bytes = std::strtoull(next(), nullptr, 10) << 20;
    } else if (arg == "--wal-sync-every") {
      opts.wal_sync_every = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--replica-of") {
      opts.replica_of = next();
    } else if (arg == "--min-replica-acks") {
      opts.min_replica_acks = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--advertise-addr") {
      opts.advertise_addr = next();
    } else if (arg == "--stats-interval-s") {
      stats_interval_s = std::atof(next());
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "dpss-serverd: unknown flag %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  auto started = dpss::server::Server::Start(opts);
  if (!started.ok()) {
    std::fprintf(stderr, "dpss-serverd: start failed: %s (%s)\n",
                 started.status().message(),
                 dpss::StatusCodeName(started.status().code()));
    return 1;
  }
  g_server = started->get();

  struct sigaction sa{};
  sa.sa_handler = HandleTermSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  struct sigaction sp{};
  sp.sa_handler = HandlePromoteSignal;
  sigaction(SIGUSR1, &sp, nullptr);
  signal(SIGPIPE, SIG_IGN);

  std::printf("listening on %s:%d (backend=%s%s%s%s%s)\n", opts.host.c_str(),
              g_server->port(), opts.backend.c_str(),
              opts.durable_dir.empty() ? "" : ", durable_dir=",
              opts.durable_dir.c_str(),
              opts.replica_of.empty() ? "" : ", replica of ",
              opts.replica_of.c_str());
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%d\n", g_server->port());
      std::fclose(f);
    }
  }

  if (stats_interval_s > 0) {
    const auto interval = std::chrono::duration<double>(stats_interval_s);
    while (!g_server->stopped()) {
      std::this_thread::sleep_for(interval);
      if (g_server->stopped()) break;
      std::fprintf(stderr, "%s", g_server->StatsJson().c_str());
    }
  }

  g_server->WaitUntilStopped();
  std::fprintf(stderr, "dpss-serverd: drained, final stats:\n%s",
               g_server->StatsJson().c_str());
  g_server = nullptr;
  return 0;
}
