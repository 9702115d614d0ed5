// idle_policy_pin.hpp — hold LWT_IDLE_POLICY off a runtime boot whose idle
// policy a test asserts on.
//
// By contract the variable overrides a runtime's programmatic policy
// (core/runtime.hpp), so a suite run under LWT_IDLE_POLICY=spin would boot
// a spinning runtime into a test that checks parks. The policy is resolved
// at boot: pin around the construction, then restore.
#pragma once

#include <cstdlib>
#include <string>

namespace lwt::test {

/// Unsets LWT_IDLE_POLICY until restore() or destruction, which put the
/// caller's value back.
class IdlePolicyEnvPin {
  public:
    IdlePolicyEnvPin() {
        if (const char* value = std::getenv(kVar)) {
            saved_ = value;
            held_ = true;
            ::unsetenv(kVar);
        }
    }
    ~IdlePolicyEnvPin() { restore(); }
    IdlePolicyEnvPin(const IdlePolicyEnvPin&) = delete;
    IdlePolicyEnvPin& operator=(const IdlePolicyEnvPin&) = delete;

    void restore() {
        if (held_) {
            ::setenv(kVar, saved_.c_str(), 1);
            held_ = false;
        }
    }

  private:
    static constexpr const char* kVar = "LWT_IDLE_POLICY";
    std::string saved_;
    bool held_ = false;
};

}  // namespace lwt::test
