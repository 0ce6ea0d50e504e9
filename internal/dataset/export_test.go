package dataset

import (
	"bytes"
	"fmt"
	"reflect"
)

// notColumns are the fields of Columns that hold no snapshot column:
// what NewStore keeps until the dense layer is derived from it, the
// mapping, and the two derived products.
var notColumns = map[string]bool{"Columns.refIPs": true, "Columns.mmap": true, "Columns.nRowByID": true, "Columns.dense": true}

// DiffColumns compares two stores' columns and dense layers cell by cell
// and describes the first difference, "" when there is none. It walks the
// struct fields by reflection, so a column added to Columns is compared —
// or reported as a kind it cannot compare — without being listed here.
func DiffColumns(a, b *Store) string {
	if d := diffFields("Columns", reflect.ValueOf(a.Cols()).Elem(), reflect.ValueOf(b.Cols()).Elem()); d != "" {
		return d
	}
	return diffFields("denseBots", reflect.ValueOf(a.denseBots()).Elem(), reflect.ValueOf(b.denseBots()).Elem())
}

func diffFields(owner string, a, b reflect.Value) string {
	// readable lifts the read-only flag reflection puts on unexported fields.
	readable := func(v reflect.Value) reflect.Value { return reflect.NewAt(v.Type(), v.Addr().UnsafePointer()).Elem() }
	for i := 0; i < a.NumField(); i++ {
		name := owner + "." + a.Type().Field(i).Name
		if notColumns[name] {
			continue
		}
		fa, fb := readable(a.Field(i)), readable(b.Field(i))
		if ca, ok := fa.Interface().(addrCol); ok {
			if cb := fb.Interface().(addrCol); !bytes.Equal(ca.b, cb.b) || !bytes.Equal(ca.tag, cb.tag) || len(ca.zones) != len(cb.zones) {
				return name + " differs"
			}
			continue
		}
		if fa.Kind() != reflect.Slice {
			return name + ": DiffColumns cannot compare a " + fa.Kind().String()
		}
		if fa.Len() != fb.Len() {
			return fmt.Sprintf("%s has %d cells against %d", name, fa.Len(), fb.Len())
		}
		for j := 0; j < fa.Len(); j++ {
			if x, y := fa.Index(j).Interface(), fb.Index(j).Interface(); x != y {
				return fmt.Sprintf("%s[%d] = %v against %v", name, j, x, y)
			}
		}
	}
	return ""
}
