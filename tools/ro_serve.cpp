// ro-serve — the long-lived multi-tenant Engine service CLI
// (src/ro/serve, docs/serve.md).
//
//   ro-serve start    --socket=PATH [--max-inflight=N]
//                     [--tenant-budget=BYTES]   (0 = unbounded)
//       Runs the daemon in the foreground until a client sends the
//       shutdown op (or the process gets SIGINT/SIGTERM).
//
//   ro-serve submit   --socket=PATH [--workload=NAME --n=N --kind=K ...]
//                     [--spec=JSON | --spec-file=FILE]
//       Builds a JobSpec from flags (or takes one verbatim), submits it,
//       prints the JobResult JSON line, exits 0 iff status is "ok".  Every
//       JobSpec wire key is a flag, '_' spelled '-' (docs/serve.md lists
//       them); a bare flag means 1.  Unlike a default JobSpec, the
//       workload defaults to msum, the backend to sim-pws and the label to
//       the workload.
//
//   ro-serve stats    --socket=PATH    admission counters + jobs served
//   ro-serve shutdown --socket=PATH    stop the daemon
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ro/engine/fields.h"
#include "ro/serve/client.h"
#include "ro/serve/server.h"
#include "ro/util/cli.h"

namespace {

using namespace ro;

volatile std::sig_atomic_t g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: ro-serve start|submit|stats|shutdown --socket=PATH "
               "[flags]\n       (see tools/ro_serve.cpp for the full list)\n");
  return 2;
}

int cmd_start(const Cli& cli, const std::string& socket) {
  serve::Server::Options opt;
  opt.socket_path = socket;
  opt.admission.max_inflight =
      static_cast<uint32_t>(cli.get_int("max-inflight", 4));
  opt.admission.tenant_budget_bytes =
      static_cast<uint64_t>(cli.get_int("tenant-budget", 0));
  serve::Server server(opt);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "ro-serve: %s\n", err.c_str());
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("ro-serve: listening on %s (max-inflight=%u budget=%llu)\n",
              socket.c_str(), opt.admission.max_inflight,
              static_cast<unsigned long long>(opt.admission.tenant_budget_bytes));
  std::fflush(stdout);
  while (server.running() && g_signalled == 0) ::usleep(50 * 1000);
  server.stop();
  std::printf("ro-serve: stopped after %llu job(s)\n",
              static_cast<unsigned long long>(server.jobs_served()));
  return 0;
}

bool spec_from_cli(const Cli& cli, JobSpec& spec, std::string& err) {
  const std::string inline_spec = cli.get_str("spec", "");
  const std::string spec_file = cli.get_str("spec-file", "");
  if (!inline_spec.empty() || !spec_file.empty()) {
    std::string text = inline_spec;
    if (!spec_file.empty()) {
      std::ifstream in(spec_file);
      if (!in) {
        err = "cannot read " + spec_file;
        return false;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
    return jobspec_from_json(text, spec, &err);
  }
  // Every wire key is a flag (the key with '_' -> '-'; a bare flag reads
  // as 1).  Three presets differ from JobSpec's defaults.
  spec.workload = "msum";
  spec.opt.backend = Backend::kSimPws;
  for (const Field<JobSpec>& f : jobspec_fields()) {
    const std::string flag = field_flag(f);
    if (cli.has(flag) &&
        !read_field(f, cli.get_str(flag, ""), f.at(spec), &err)) {
      return false;
    }
  }
  if (!cli.has("label")) spec.opt.label = spec.workload;
  return true;
}

int cmd_submit(const Cli& cli, const std::string& socket) {
  JobSpec spec;
  std::string err;
  if (!spec_from_cli(cli, spec, err)) {
    std::fprintf(stderr, "ro-serve: %s\n", err.c_str());
    return 2;
  }
  serve::Client client;
  if (!client.connect(socket, &err)) {
    std::fprintf(stderr, "ro-serve: %s\n", err.c_str());
    return 1;
  }
  JobResult jr;
  if (!client.submit(spec, jr)) {
    std::fprintf(stderr, "ro-serve: connection lost mid-submit\n");
    return 1;
  }
  std::printf("%s\n", jr.to_json().c_str());
  return jr.ok() ? 0 : 1;
}

int cmd_stats(const std::string& socket) {
  serve::Client client;
  std::string err;
  if (!client.connect(socket, &err)) {
    std::fprintf(stderr, "ro-serve: %s\n", err.c_str());
    return 1;
  }
  std::string reply;
  if (!client.exchange("{\"op\":\"stats\"}", reply)) {
    std::fprintf(stderr, "ro-serve: connection lost\n");
    return 1;
  }
  std::printf("%s\n", reply.c_str());
  return 0;
}

int cmd_shutdown(const std::string& socket) {
  serve::Client client;
  std::string err;
  if (!client.connect(socket, &err)) {
    std::fprintf(stderr, "ro-serve: %s\n", err.c_str());
    return 1;
  }
  if (!client.shutdown()) {
    std::fprintf(stderr, "ro-serve: shutdown not acknowledged\n");
    return 1;
  }
  std::printf("ro-serve: shutdown acknowledged\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string cmd = cli.positional()[0];
  const std::string socket = cli.get_str("socket", "/tmp/ro-serve.sock");
  if (cmd == "start") return cmd_start(cli, socket);
  if (cmd == "submit") return cmd_submit(cli, socket);
  if (cmd == "stats") return cmd_stats(socket);
  if (cmd == "shutdown") return cmd_shutdown(socket);
  return usage();
}
