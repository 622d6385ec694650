/// synergy_lifecycle — inspect and operate a persisted model-version store.
///
/// The store is the on-disk side of the model-lifecycle subsystem
/// (ARCHITECTURE.md Sec. 13): every version the registry installed lives
/// under `<dir>/v<N>/` as sealed envelopes, and `<dir>/HEAD` names the
/// champion a fresh deployment should load. This tool is the operator's
/// view of that history, plus the two manual override verbs.
///
/// Usage: synergy_lifecycle <command> <dir> [options]
///   status <dir>             HEAD, version count, and champion integrity
///   history <dir>            every persisted version, in id order
///   promote <dir> --id N     point HEAD at version N (validated first)
///   rollback <dir>           point HEAD at the current HEAD's parent
///   gc <dir> [--keep N]      drop oldest versions beyond N (default 4),
///                            never the HEAD version
///
/// Exit codes: 0 success, 1 usage / missing store, 2 damaged artefacts.
/// Output is stable (no timestamps), so workflows can assert on it.

#include <cstdint>
#include <iostream>
#include <string>

#include "synergy/common/parse.hpp"
#include "synergy/gpusim/device_spec.hpp"
#include "synergy/lifecycle/version_store.hpp"

namespace lc = synergy::lifecycle;

namespace {

int usage(int code) {
  (code ? std::cerr : std::cout)
      << "usage: synergy_lifecycle status   <dir>\n"
         "       synergy_lifecycle history  <dir>\n"
         "       synergy_lifecycle promote  <dir> --id N\n"
         "       synergy_lifecycle rollback <dir>\n"
         "       synergy_lifecycle gc       <dir> [--keep N]\n";
  return code;
}

void print_version(const lc::version_manifest& m, bool is_head) {
  std::cout << "  v" << m.id << ' ' << lc::to_string(m.origin) << " parent=" << m.parent
            << " device=" << m.device;
  if (m.origin != lc::version_origin::initial)
    std::cout << " challenger_mape=" << m.challenger_mape << " champion_mape=" << m.champion_mape;
  if (!m.note.empty()) std::cout << " (" << m.note << ')';
  if (is_head) std::cout << "  <- HEAD";
  std::cout << '\n';
}

/// Validate that a version's model set actually loads before letting HEAD
/// point at it — a manual promote must not brick the next deployment.
bool loads(const lc::version_store& store, std::uint64_t id) {
  const auto manifest = store.read_manifest(id);
  if (!manifest) {
    std::cerr << "error: v" << id << " manifest missing or damaged\n";
    return false;
  }
  std::string detail;
  const auto planner =
      store.load_planner(id, synergy::gpusim::make_device_spec(manifest->device), &detail);
  if (!planner) {
    std::cerr << "error: v" << id << " model set does not load:\n" << detail;
    return false;
  }
  return true;
}

int cmd_status(const lc::version_store& store) {
  const auto ids = store.version_ids();
  if (ids.empty()) {
    std::cerr << "error: no versions under " << store.root().string() << '\n';
    return 1;
  }
  const auto head = store.head();
  std::cout << "store: " << store.root().string() << '\n'
            << "versions: " << ids.size() << " (v" << ids.front() << "..v" << ids.back() << ")\n";
  if (!head) {
    std::cout << "head: missing or damaged\n";
    return 2;
  }
  std::cout << "head: v" << *head << '\n';
  const auto manifest = store.read_manifest(*head);
  if (!manifest) {
    std::cout << "champion: manifest missing or damaged\n";
    return 2;
  }
  print_version(*manifest, true);
  if (!loads(store, *head)) return 2;
  std::cout << "champion: loads cleanly\n";
  return 0;
}

int cmd_history(const lc::version_store& store) {
  const auto ids = store.version_ids();
  if (ids.empty()) {
    std::cerr << "error: no versions under " << store.root().string() << '\n';
    return 1;
  }
  const auto head = store.head();
  int damaged = 0;
  for (const auto id : ids) {
    const auto manifest = store.read_manifest(id);
    if (!manifest) {
      std::cout << "  v" << id << " (manifest missing or damaged)\n";
      ++damaged;
      continue;
    }
    print_version(*manifest, head && *head == id);
  }
  return damaged ? 2 : 0;
}

int cmd_promote(const lc::version_store& store, std::uint64_t id) {
  if (!loads(store, id)) return 2;
  if (const auto st = store.set_head(id); !st.ok()) {
    std::cerr << "error: " << st.err().to_string() << '\n';
    return 2;
  }
  std::cout << "HEAD -> v" << id << '\n';
  return 0;
}

int cmd_rollback(const lc::version_store& store) {
  const auto head = store.head();
  if (!head) {
    std::cerr << "error: HEAD missing or damaged\n";
    return 2;
  }
  const auto manifest = store.read_manifest(*head);
  if (!manifest) {
    std::cerr << "error: v" << *head << " manifest missing or damaged\n";
    return 2;
  }
  if (manifest->parent == 0) {
    std::cerr << "error: v" << *head << " has no parent to roll back to\n";
    return 1;
  }
  if (!loads(store, manifest->parent)) return 2;
  if (const auto st = store.set_head(manifest->parent); !st.ok()) {
    std::cerr << "error: " << st.err().to_string() << '\n';
    return 2;
  }
  std::cout << "HEAD -> v" << manifest->parent << " (rolled back from v" << *head << ")\n";
  return 0;
}

int cmd_gc(const lc::version_store& store, std::size_t keep) {
  const auto removed = store.gc(keep);
  std::cout << "removed " << removed << " version(s), keeping " << store.version_ids().size()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h"))
    return usage(0);
  if (argc < 3) return usage(1);
  const std::string command = argv[1];
  const lc::version_store store{argv[2]};

  try {
    if (command == "status") return cmd_status(store);
    if (command == "history") return cmd_history(store);
    if (command == "promote") {
      if (argc != 5 || std::string(argv[3]) != "--id") return usage(1);
      const auto id = synergy::common::parse_number<std::uint64_t>(argv[4], "--id");
      if (id == 0) return usage(1);
      return cmd_promote(store, id);
    }
    if (command == "rollback") return cmd_rollback(store);
    if (command == "gc") {
      std::size_t keep = 4;
      if (argc == 5 && std::string(argv[3]) == "--keep")
        keep = synergy::common::parse_number<std::size_t>(argv[4], "--keep");
      else if (argc != 3) return usage(1);
      return cmd_gc(store, keep);
    }
    std::cerr << "error: unknown command " << command << '\n';
    return usage(1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
