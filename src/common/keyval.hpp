// Shared "key=value,key=value" spec-string parsing.
//
// Both CLI spec surfaces — the serving workload spec and the tuner's
// --strategy spec — accept comma-separated key=value lists. This helper is
// the one choke point for their lexical handling, so every spec rejects
// malformed items and unknown keys the same way: with an error that names
// the offending key and lists the accepted ones, never by silently
// ignoring a typo (a misspelled `requets=10000` that quietly runs the
// 1000-request default is a debugging session nobody needs).
#pragma once

#include <string>
#include <vector>

namespace gemmtune {

/// One `key=value` item of a spec string, in spec order.
struct KeyValue {
  std::string key;
  std::string value;
};

/// Splits `text` ("k=v,k=v,..."; empty yields {}) into items. Throws
/// gemmtune::Error naming `context` when an item has no '=' or an empty
/// key.
std::vector<KeyValue> parse_keyval_spec(const std::string& text,
                                        const std::string& context);

/// Throws gemmtune::Error: "<context>: unknown key '<key>' (use a, b, c)".
/// Call from the final `else` of a spec's key dispatch so no key is ever
/// silently dropped.
[[noreturn]] void fail_unknown_key(const std::string& context,
                                   const std::string& key,
                                   const std::vector<std::string>& allowed);

/// Throws gemmtune::Error: "<context>: unknown value '<value>' (use a, b,
/// c)". The enumerated-value counterpart of fail_unknown_key, for options
/// (CLI flags, environment variables) whose value must come from a fixed
/// set.
[[noreturn]] void fail_unknown_value(const std::string& context,
                                     const std::string& value,
                                     const std::vector<std::string>& allowed);

}  // namespace gemmtune
