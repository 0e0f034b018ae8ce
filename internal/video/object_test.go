package video

import "testing"

func TestClassStringsAndPrivacy(t *testing.T) {
	if !Person.Private() || !Car.Private() || !Bike.Private() || !Boat.Private() {
		t.Errorf("individual classes must be private")
	}
	if TrafficLight.Private() || Tree.Private() {
		t.Errorf("scene elements must not be private")
	}
	for _, c := range []Class{Person, Car, Bike, Boat, TrafficLight, Tree} {
		if c.String() == "" {
			t.Errorf("empty String for %d", c)
		}
	}
}
