// Interactive advisor shell: the demo's "visual client" as a REPL. Works
// from a terminal or a piped script; try:
//
//   ./build/examples/advisor_shell < docs/demo_script.txt
//
// Every command is executed by the shared xia::server::CommandDispatcher
// (src/server/session.h), so this REPL and the network server
// (src/xia_server) run byte-identical verbs — the REPL is simply one
// ClientSession over a private SharedState. See `help` or
// docs/PROTOCOL.md for the command set.
//
// Flags: --time-limit-ms <N> caps every 'advise' run (anytime search:
// best-so-far + warning on expiry); --capture [capacity] arms workload
// capture from startup; --failpoint <name=mode> arms a fault-injection
// point (repeatable; same grammar as the XIA_FAILPOINTS environment
// variable, which is also honored).

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/failpoint.h"
#include "server/session.h"

using namespace xia;

int main(int argc, char** argv) {
  server::SharedState shared;
  // Failpoints from the environment first, then flags (flags win on
  // conflict since ArmFromSpec overwrites by name).
  Status env_status = fp::ArmFromEnv();
  if (!env_status.ok()) {
    std::cerr << "XIA_FAILPOINTS: " << env_status.ToString() << "\n";
    return 1;
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--time-limit-ms" && i + 1 < argc) {
      shared.default_options.time_budget_ms = std::atoll(argv[++i]);
    } else if (arg == "--capture") {
      std::optional<size_t> capacity =
          i + 1 < argc ? server::ParseCaptureCapacity(argv[i + 1])
                       : std::nullopt;
      if (capacity.has_value()) ++i;
      shared.ArmCapture(capacity.value_or(server::kDefaultCaptureCapacity));
    } else if (arg == "--failpoint" && i + 1 < argc) {
      Status status = fp::ArmFromSpec(argv[++i]);
      if (!status.ok()) {
        std::cerr << "--failpoint: " << status.ToString() << "\n";
        return 1;
      }
    } else {
      std::cerr << "usage: advisor_shell [--time-limit-ms <N>]"
                   " [--capture [capacity]]"
                   " [--failpoint <name=mode[,mode...]>]...\n";
      return 1;
    }
  }
  if (shared.capture_armed) {
    std::cout << "workload capture armed ("
              << shared.capture_log->stats().capacity
              << " record ring) — type 'log stats'\n";
  }
  if (shared.default_options.time_budget_ms > 0) {
    std::cout << "advise time budget: "
              << shared.default_options.time_budget_ms
              << "ms (anytime: best-so-far on expiry)\n";
  }
  if (fp::AnyArmed()) {
    std::cout << "fault injection armed — type 'failpoint list'\n";
  }
  std::cout << "xia advisor shell — type 'help' for commands\n";

  server::CommandDispatcher dispatcher(&shared);
  server::ClientSession session(shared);
  std::string line;
  while (std::cout << "xia> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (dispatcher.Execute(line, &session, std::cout) ==
        server::CommandOutcome::kQuit) {
      break;
    }
  }
  std::cout << "bye\n";
  return 0;
}
