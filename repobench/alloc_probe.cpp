#include "alloc_probe.hpp"

#include <elf.h>
#include <link.h>
#include <unwind.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

namespace repobench {

namespace {

std::atomic<std::uint64_t> g_allocs{0};
bool g_attrib_on = false;
thread_local bool t_in_probe = false;
LayerCounts g_counts{};

struct Sym {
  std::uintptr_t lo;
  std::uintptr_t hi;
  Layer layer;
};
std::vector<Sym> g_syms;  // classified functions only, sorted by lo
bool g_syms_loaded = false;
bool g_syms_ok = false;
std::uintptr_t g_probe_lo = 0;  // start of detail::note_alloc

const Sym* lookup(std::uintptr_t pc);

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
bool contains(std::string_view s, std::string_view p) {
  return s.find(p) != std::string_view::npos;
}

// Protocol classes named in a mangled symbol (member functions, their local
// lambdas, and std:: thunks instantiated over those lambdas).
Layer protocol_marker(std::string_view n) {
  if (contains(n, "11reliability8EcSender") ||
      contains(n, "11reliability10EcReceiver")) {
    return Layer::kEc;
  }
  if (contains(n, "11reliability8SrSender") ||
      contains(n, "11reliability10SrReceiver")) {
    return Layer::kSr;
  }
  return Layer::kNone;
}

std::uintptr_t main_load_base() {
  std::uintptr_t base = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;  // the first object is the executable itself
      },
      &base);
  return base;
}

void load_symbols() {
  if (g_syms_loaded) return;
  g_syms_loaded = true;
  std::FILE* f = std::fopen("/proc/self/exe", "rb");
  if (f == nullptr) return;
  std::vector<unsigned char> image;
  unsigned char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    image.insert(image.end(), buf, buf + n);
  }
  std::fclose(f);
  if (image.size() < sizeof(Elf64_Ehdr)) return;
  Elf64_Ehdr eh;
  std::memcpy(&eh, image.data(), sizeof eh);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shentsize != sizeof(Elf64_Shdr) ||
      eh.e_shoff + std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
          image.size()) {
    return;
  }
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  std::memcpy(sections.data(), image.data() + eh.e_shoff,
              sections.size() * sizeof(Elf64_Shdr));
  const std::uintptr_t base = main_load_base();
  for (const Elf64_Shdr& sh : sections) {
    if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) continue;
    const Elf64_Shdr& strtab = sections[sh.sh_link];
    if (sh.sh_offset + sh.sh_size > image.size() ||
        strtab.sh_offset + strtab.sh_size > image.size()) {
      continue;
    }
    const std::size_t count = sh.sh_size / sizeof(Elf64_Sym);
    const char* names =
        reinterpret_cast<const char*>(image.data() + strtab.sh_offset);
    for (std::size_t i = 0; i < count; ++i) {
      Elf64_Sym sym;
      std::memcpy(&sym, image.data() + sh.sh_offset + i * sizeof sym,
                  sizeof sym);
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
          sym.st_shndx == SHN_UNDEF || sym.st_name >= strtab.sh_size) {
        continue;
      }
      const std::string_view name(
          names + sym.st_name,
          strnlen(names + sym.st_name, strtab.sh_size - sym.st_name));
      const Layer layer = classify_symbol(name);
      if (layer == Layer::kNone) continue;
      const std::uintptr_t lo = base + sym.st_value;
      g_syms.push_back({lo, lo + sym.st_size, layer});
    }
  }
  std::sort(g_syms.begin(), g_syms.end(),
            [](const Sym& a, const Sym& b) { return a.lo < b.lo; });
  const Sym* probe =
      lookup(reinterpret_cast<std::uintptr_t>(&detail::note_alloc));
  g_probe_lo = probe != nullptr ? probe->lo : 0;
  g_syms_ok = !g_syms.empty();
}

const Sym* lookup(std::uintptr_t pc) {
  auto it = std::upper_bound(
      g_syms.begin(), g_syms.end(), pc,
      [](std::uintptr_t v, const Sym& s) { return v < s.lo; });
  if (it == g_syms.begin()) return nullptr;
  --it;
  return pc < it->hi ? &*it : nullptr;
}

struct Walk {
  Layer layer{Layer::kNone};
  int frames{0};
};

_Unwind_Reason_Code walk_frame(_Unwind_Context* ctx, void* arg) {
  auto* walk = static_cast<Walk*>(arg);
  const std::uintptr_t pc = _Unwind_GetIP(ctx);
  if (pc != 0) {
    // Return address -> call site. The probe itself is benchmark code too;
    // only benchmark frames above it are real callers.
    const Sym* sym = lookup(pc - 1);
    if (sym != nullptr && sym->lo != g_probe_lo) {
      walk->layer = sym->layer;
      return _URC_END_OF_STACK;
    }
  }
  return ++walk->frames >= 64 ? _URC_END_OF_STACK : _URC_NO_REASON;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kChannel: return "channel";
    case Layer::kVerbs: return "verbs";
    case Layer::kSdr: return "sdr";
    case Layer::kSr: return "sr";
    case Layer::kEc: return "ec";
    case Layer::kReliability: return "reliability";
    case Layer::kCodec: return "codec";
    case Layer::kFleet: return "fleet";
    case Layer::kCollectives: return "collectives";
    case Layer::kTelemetry: return "telemetry";
    case Layer::kMisc: return "misc";
    case Layer::kBench: return "bench";
    case Layer::kNone: return "none";
    case Layer::kCount: break;
  }
  return "?";
}

Layer classify_symbol(std::string_view n) {
  const bool bench = starts_with(n, "_ZN9repobench") ||
                     starts_with(n, "_ZNK9repobench") ||
                     starts_with(n, "_ZZN9repobench") ||
                     starts_with(n, "_ZZNK9repobench");
  if (bench) return Layer::kBench;
  std::string_view rest;
  for (std::string_view p : {"_ZN3sdr", "_ZNK3sdr", "_ZZN3sdr", "_ZZNK3sdr"}) {
    if (starts_with(n, p)) rest = n.substr(p.size());
  }
  if (rest.empty()) {
    // std:: thunks (std::function handlers, ...) carry the callable's name.
    if (contains(n, "9repobench")) return Layer::kBench;
    if (contains(n, "N3sdr5fleet")) return Layer::kFleet;
    return protocol_marker(n);
  }
  if (const Layer marked = protocol_marker(n); marked != Layer::kNone) {
    return marked;
  }
  if (starts_with(rest, "3sim")) {
    return starts_with(rest, "3sim7Channel") ||
                   starts_with(rest, "3sim10DuplexLink")
               ? Layer::kChannel
               : Layer::kSim;
  }
  if (starts_with(rest, "5verbs")) return Layer::kVerbs;
  if (starts_with(rest, "4core")) return Layer::kSdr;
  if (starts_with(rest, "11reliability")) return Layer::kReliability;
  if (starts_with(rest, "2ec")) return Layer::kCodec;
  if (starts_with(rest, "5fleet")) return Layer::kFleet;
  if (starts_with(rest, "11collectives")) return Layer::kCollectives;
  if (starts_with(rest, "9telemetry")) return Layer::kTelemetry;
  if (starts_with(rest, "3dpa") || starts_with(rest, "5model") ||
      starts_with(rest, "5check") || starts_with(rest, "5sweep")) {
    return Layer::kMisc;
  }
  return Layer::kNone;  // sdr::Bitmap, sdr::common, Status, ...
}

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

bool attribution_available() {
  load_symbols();
  return g_syms_ok;
}

void attribution_start() {
  load_symbols();
  g_counts.fill(0);
  g_attrib_on = true;
}

LayerCounts attribution_stop() {
  g_attrib_on = false;
  return g_counts;
}

namespace detail {

void note_alloc() {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (!g_attrib_on || t_in_probe) return;
  t_in_probe = true;
  Walk walk;
  if (g_syms_ok) _Unwind_Backtrace(walk_frame, &walk);
  ++g_counts[static_cast<std::size_t>(walk.layer)];
  t_in_probe = false;
}

}  // namespace detail

}  // namespace repobench
