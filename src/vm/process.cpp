#include "vm/process.hpp"

#include "fir/legalize.hpp"
#include "fir/serialize.hpp"
#include "fir/typecheck.hpp"
#include "support/error.hpp"
#include "vm/lowering.hpp"

namespace mojave::vm {

Process::Process(fir::Program program, ProcessConfig cfg)
    : heap_(cfg.heap), spec_(heap_) {
  // Legalize before typechecking so the canonical FIR is what gets kept,
  // serialized for migration, and lowered by every backend.
  fir::legalize(program);
  fir::typecheck(program);
  CompiledProgram compiled = lower(program);
  program_ = std::move(program);
  vm_ = std::make_unique<Interpreter>(heap_, spec_, std::move(compiled),
                                      /*intern_strings=*/true);
  if (cfg.output != nullptr) vm_->set_output(cfg.output);
  vm_->set_max_instructions(cfg.max_instructions);
  vm_->set_trap_to_speculation(cfg.trap_to_speculation);
  vm_->set_jit_options(cfg.jit);
}

Process::Process(CompiledProgram compiled, ProcessConfig cfg,
                 bool intern_strings)
    : heap_(cfg.heap), spec_(heap_) {
  vm_ = std::make_unique<Interpreter>(heap_, spec_, std::move(compiled),
                                      intern_strings);
  if (cfg.output != nullptr) vm_->set_output(cfg.output);
  vm_->set_max_instructions(cfg.max_instructions);
  vm_->set_trap_to_speculation(cfg.trap_to_speculation);
  vm_->set_jit_options(cfg.jit);
}

const fir::Program& Process::program() const {
  if (!program_.has_value()) {
    throw MigrateError(
        "process has no FIR (it was reconstructed from a binary image); "
        "FIR migration is unavailable");
  }
  return *program_;
}

const std::vector<std::byte>& Process::program_text(bool fir) {
  std::vector<std::byte>& text = program_text_[fir ? 0 : 1];
  if (text.empty()) {
    Writer w;
    if (fir) {
      fir::write_program(w, program());
    } else {
      serialize_compiled(w, vm_->compiled());
    }
    text = w.take();
  }
  return text;
}

}  // namespace mojave::vm
