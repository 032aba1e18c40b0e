#include "src/opt/key_class.h"

#include "src/runtime/builtins.h"

namespace xqc {

const char* KeyClassName(KeyClass c) {
  switch (c) {
    case KeyClass::kGeneral: return "general";
    case KeyClass::kUntyped: return "untyped";
    case KeyClass::kString: return "string";
    case KeyClass::kNumeric: return "numeric";
  }
  return "general";
}

KeyClass InferJoinKeyClass(const Op& key, bool schema_in_scope) {
  switch (key.kind) {
    case OpKind::kScalar:
      if (key.literal.is_numeric()) return KeyClass::kNumeric;
      if (key.literal.type() == AtomicType::kString) return KeyClass::kString;
      if (key.literal.type() == AtomicType::kUntypedAtomic) {
        return KeyClass::kUntyped;
      }
      return KeyClass::kGeneral;
    case OpKind::kTreeJoin:
      // Navigation yields nodes; fn:data over untyped nodes yields
      // xdt:untypedAtomic — unless a schema may have annotated them.
      return schema_in_scope ? KeyClass::kGeneral : KeyClass::kUntyped;
    case OpKind::kCast:
      if (key.stype.test.kind == ItemTest::Kind::kAtomic) {
        if (IsNumeric(key.stype.test.atomic)) return KeyClass::kNumeric;
        if (key.stype.test.atomic == AtomicType::kString) {
          return KeyClass::kString;
        }
        if (key.stype.test.atomic == AtomicType::kUntypedAtomic) {
          return KeyClass::kUntyped;
        }
      }
      return KeyClass::kGeneral;
    case OpKind::kSequence: {
      KeyClass a = InferJoinKeyClass(*key.inputs[0], schema_in_scope);
      KeyClass b = InferJoinKeyClass(*key.inputs[1], schema_in_scope);
      return a == b ? a : KeyClass::kGeneral;
    }
    case OpKind::kCond: {
      KeyClass a = InferJoinKeyClass(*key.deps[0], schema_in_scope);
      KeyClass b = InferJoinKeyClass(*key.deps[1], schema_in_scope);
      return a == b ? a : KeyClass::kGeneral;
    }
    case OpKind::kMapToItem:
      return InferJoinKeyClass(*key.deps[0], schema_in_scope);
    case OpKind::kCall:
      if (IdOf(key.builtin) == BuiltinId::kDistinctDocOrder) {
        return InferJoinKeyClass(*key.inputs[0], schema_in_scope);
      }
      if (key.builtin == nullptr) return KeyClass::kGeneral;
      if (key.builtin->result == ResultClass::kNumeric) {
        return KeyClass::kNumeric;
      }
      return key.builtin->result == ResultClass::kString ? KeyClass::kString
                                                         : KeyClass::kGeneral;
    case OpKind::kTypeAssert:
      // The assertion guarantees the type at runtime (or errors).
      if (key.stype.test.kind == ItemTest::Kind::kAtomic) {
        if (IsNumeric(key.stype.test.atomic)) return KeyClass::kNumeric;
        if (key.stype.test.atomic == AtomicType::kString) {
          return KeyClass::kString;
        }
      }
      return InferJoinKeyClass(*key.inputs[0], schema_in_scope);
    default:
      return KeyClass::kGeneral;
  }
}

KeyMode CombineKeyClasses(KeyClass left, KeyClass right) {
  if (left == KeyClass::kGeneral || right == KeyClass::kGeneral) {
    return KeyMode::kGeneralKeys;
  }
  auto is = [&](KeyClass a, KeyClass b) {
    return (left == a && right == b) || (left == b && right == a);
  };
  // Table 2: untyped converts to the other side's type.
  if (is(KeyClass::kUntyped, KeyClass::kUntyped) ||
      is(KeyClass::kUntyped, KeyClass::kString) ||
      is(KeyClass::kString, KeyClass::kString)) {
    return KeyMode::kStringKeys;
  }
  if (is(KeyClass::kNumeric, KeyClass::kNumeric) ||
      is(KeyClass::kUntyped, KeyClass::kNumeric)) {
    return KeyMode::kDoubleKeys;
  }
  // string vs numeric: never comparable after convert-operand.
  return KeyMode::kNoMatch;
}

}  // namespace xqc
